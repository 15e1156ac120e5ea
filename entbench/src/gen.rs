//! Seeded generator of well-typed ENT programs at a target source size.
//!
//! The shapes follow `ent_workloads::fuzzgen` (recursion-driven loops,
//! arrays, strings, bounded snapshots, mode cases, double math), but a
//! program here is a stack of `App<k>` classes, one per ~2 KB, so one
//! generator covers the 1/4/16/64 KB size sweep. Unlike the fuzzer, no
//! scenario opts into a runtime failure: indexing stays in bounds and
//! every bounded snapshot is caught, so a generated program runs to the
//! end and its cost grows with its size.
//!
//! One splitmix64 stream per `(seed, target)`: the same arguments give
//! byte-identical source on every platform.

use std::fmt::Write as _;

/// Deterministic splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// Creates a stream; the seed goes through the splitmix64 finalizer so
    /// neighbouring seeds give unrelated streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut r = Rng(seed);
        let first = r.next_u64();
        Rng(first)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// A uniform element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() % items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The size buckets of the sweep: label and target source bytes.
pub const SIZE_BUCKETS: [(&str, usize); 4] =
    [("1k", 1024), ("4k", 4096), ("16k", 16384), ("64k", 65536)];

/// The bucket label a source of `bytes` bytes falls in (nearest bucket on
/// a log scale).
#[must_use]
pub fn bucket_of(bytes: usize) -> &'static str {
    match bytes {
        0..=2047 => "1k",
        2048..=8191 => "4k",
        8192..=32767 => "16k",
        _ => "64k",
    }
}

const MODES: [&str; 3] = ["energy_saver", "managed", "full_throttle"];
const WORK_KINDS: [&str; 4] = ["cpu", "net", "io", "crypto"];
const WORDS: [&str; 8] = [
    "alpha", "beam", "core", "delta", "ember", "flux", "grid", "helix",
];

/// Generates one well-typed program of roughly `target` source bytes
/// (never less than one `App` class, about 1 KB).
#[must_use]
pub fn program(seed: u64, target: usize) -> String {
    let mut rng = Rng::new(seed ^ (target as u64).rotate_left(32));
    let t2 = rng.range(20, 50);
    let t1 = rng.range(5, t2 - 5);
    let mut classes = format!(
        "modes {{ energy_saver <= managed; managed <= full_throttle; }}
class Workload@mode<? <= W> {{
  double items;
  attributor {{
    if (this.items >= {t2}.0) {{ return full_throttle; }}
    else if (this.items >= {t1}.0) {{ return managed; }}
    else {{ return energy_saver; }}
  }}
  double size() {{ return this.items; }}
}}
"
    );
    let mut main_body = String::new();
    let mut k = 0;
    // Classes of at most ~2 KB each, the last one cut to what is left;
    // `main` spends ~80 bytes per class and ~120 around them.
    loop {
        let left = target.saturating_sub(classes.len() + main_body.len() + 120);
        if k > 0 && left < 400 {
            break;
        }
        let (class, call) = app_class(&mut rng, k, left.min(2200));
        classes.push_str(&class);
        let _ = writeln!(
            main_body,
            "    let d{k} = new App{k}();\n    let App{k} a{k} = snapshot d{k} [_, _];\n    let t{k} = {call};"
        );
        k += 1;
    }
    let sum = (0..k)
        .map(|i| format!("t{i}"))
        .collect::<Vec<_>>()
        .join(" + ");
    let _ = write!(
        classes,
        "class Main {{
  int main() {{
{main_body}    let total = {sum};
    IO.print(\"total=\" + Str.ofInt(total));
    return total;
  }}
}}
"
    );
    classes
}

/// One `App<k>` class of at most about `budget` bytes (but always at
/// least one scenario) and the expression `main` uses to run all of its
/// scenarios through the snapshotted local `a<k>`.
fn app_class(rng: &mut Rng, k: usize, budget: usize) -> (String, String) {
    let n_fields = rng.range(1, 4) as usize;
    let fields: Vec<String> = (0..n_fields).map(|i| format!("q{i}")).collect();
    let hi = rng.range(60, 95);
    let lo = rng.range(20, hi - 10);
    let mut body = format!(
        "  attributor {{
    if (Ext.battery() >= 0.{hi}) {{ return full_throttle; }}
    else if (Ext.battery() >= 0.{lo}) {{ return managed; }}
    else {{ return energy_saver; }}
  }}\n"
    );
    for f in &fields {
        let _ = writeln!(
            body,
            "  mcase<int> {f} = mcase{{ energy_saver: {}; managed: {}; full_throttle: {}; }};",
            rng.range(0, 50),
            rng.range(0, 50),
            rng.range(0, 50)
        );
    }
    // Scenarios in a fixed order; each is generated (so the stream does
    // not depend on the budget) and kept while it fits.
    let mut scenarios = Vec::new();
    for i in 0..rng.range(1, 3) {
        scenarios.push(recursive_method(rng, i, &fields));
    }
    scenarios.push((array_methods(rng, &fields), "arrays0()".to_string()));
    scenarios.push((string_method(rng, &fields), "strings0()".to_string()));
    scenarios.push((snapshot_method(rng), "snaps0()".to_string()));
    scenarios.push((mcase_method(rng, &fields), "cases0()".to_string()));
    if rng.chance(60) {
        scenarios.push((math_method(rng), "maths0()".to_string()));
    }
    let mut calls = Vec::new();
    for (text, call) in scenarios {
        if !calls.is_empty() && body.len() + text.len() > budget {
            break;
        }
        body.push_str(&text);
        calls.push(format!("a{k}.{call}"));
    }
    (
        format!("class App{k}@mode<? <= X> {{\n{body}}}\n"),
        calls.join(" + "),
    )
}

/// An int expression over `vars` and the mcase fields, depth-bounded;
/// divisors are literals, so no expression can fail.
fn int_expr(rng: &mut Rng, depth: u32, vars: &[&str], fields: &[String]) -> String {
    if depth == 0 || rng.chance(30) {
        return match rng.range(0, 4) {
            0 if !vars.is_empty() => (*rng.pick(vars)).to_string(),
            1 if !fields.is_empty() => {
                format!("(this.{} <| {})", rng.pick(fields), rng.pick(&MODES))
            }
            _ => rng.range(0, 20).to_string(),
        };
    }
    let a = int_expr(rng, depth - 1, vars, fields);
    let b = int_expr(rng, depth - 1, vars, fields);
    match rng.range(0, 7) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        3 => format!("({a} / {})", rng.range(2, 8)),
        4 => format!("({a} % {})", rng.range(2, 8)),
        5 => format!("Math.min({a}, {b})"),
        _ => format!("Math.max({a}, {b})"),
    }
}

fn bool_expr(rng: &mut Rng, depth: u32, vars: &[&str], fields: &[String]) -> String {
    if depth == 0 || rng.chance(50) {
        let a = int_expr(rng, 1, vars, fields);
        let b = int_expr(rng, 1, vars, fields);
        let cmp = rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
        return format!("({a} {cmp} {b})");
    }
    let a = bool_expr(rng, depth - 1, vars, fields);
    let b = bool_expr(rng, depth - 1, vars, fields);
    match rng.range(0, 3) {
        0 => format!("({a} && {b})"),
        1 => format!("({a} || {b})"),
        _ => format!("!{a}"),
    }
}

/// A recursion-driven loop with optional simulated work.
fn recursive_method(rng: &mut Rng, i: i64, fields: &[String]) -> (String, String) {
    let vars = ["n", "acc"];
    let step = int_expr(rng, 2, &vars, fields);
    let cond = bool_expr(rng, 1, &vars, fields);
    let then_e = int_expr(rng, 1, &vars, fields);
    let work = if rng.chance(50) {
        format!(
            "    Sim.work(\"{}\", {}.0);\n",
            rng.pick(&WORK_KINDS),
            rng.range(1000, 200_000)
        )
    } else {
        String::new()
    };
    let text = format!(
        "  int rec{i}(int n, int acc) {{
    if (n <= 0) {{ return acc; }}
{work}    if ({cond}) {{ return this.rec{i}(n - 1, {then_e}); }}
    return this.rec{i}(n - 1, acc + {step});
  }}\n"
    );
    (
        text,
        format!("rec{i}({}, {})", rng.range(4, 30), rng.range(0, 5)),
    )
}

/// Array construction and a recursive indexed sum, always in bounds.
fn array_methods(rng: &mut Rng, fields: &[String]) -> String {
    let lo = rng.range(0, 5);
    let hi = lo + rng.range(5, 15);
    let weight = rng.range(1, 4);
    let extra = int_expr(rng, 1, &["i", "acc"], fields);
    format!(
        "  int sumArr(int[] xs, int i, int acc) {{
    if (i >= Arr.len(xs)) {{ return acc; }}
    return this.sumArr(xs, i + 1, acc + Arr.get(xs, i) * {weight} + {extra});
  }}
  int arrays0() {{
    let xs = Arr.range({lo}, {hi});
    let ys = Arr.push(Arr.push(xs, {}), {});
    let zs = Arr.concat(Arr.sub(ys, 1, 6), Arr.make({}, {}));
    return this.sumArr(zs, 0, 0) + Arr.get(zs, Arr.len(zs) - 1);
  }}\n",
        rng.range(0, 99),
        rng.range(0, 99),
        rng.range(1, 5),
        rng.range(0, 9),
    )
}

/// String building and printing.
fn string_method(rng: &mut Rng, fields: &[String]) -> String {
    let w1 = rng.pick(&WORDS);
    let w2 = rng.pick(&WORDS);
    let n = int_expr(rng, 1, &[], fields);
    let d = format!("{}.{}", rng.range(0, 30), rng.range(0, 10));
    let a = rng.range(0, 3);
    let b = a + rng.range(1, 4);
    format!(
        "  int strings0() {{
    let s = \"{w1}\" + Str.ofInt({n});
    let t = s + \"-{w2}-\" + Str.ofDouble({d});
    IO.print(Str.sub(t, {a}, {b}));
    return Str.len(s) * 10 + Str.len(Str.sub(t, 0, 4));
  }}\n"
    )
}

/// A bounded snapshot against the class's own mode variable, caught.
fn snapshot_method(rng: &mut Rng) -> String {
    let items = rng.range(1, 60);
    format!(
        "  int snaps0() {{
    let d = new Workload({items}.0);
    try {{
      let Workload w = snapshot d [_, X];
      return Math.floor(w.size());
    }} catch {{
      return 0 - 1;
    }}
  }}\n"
    )
}

/// Mode cases as data: a local literal plus field eliminations.
fn mcase_method(rng: &mut Rng, fields: &[String]) -> String {
    let local = format!(
        "mcase{{ energy_saver: {}; managed: {}; full_throttle: {}; }}",
        rng.range(0, 9),
        rng.range(0, 9),
        rng.range(0, 9)
    );
    let e1 = int_expr(rng, 2, &[], fields);
    let target = rng.pick(&MODES);
    format!(
        "  int cases0() {{
    let mcase<int> c = {local};
    let p = (c <| {target}) * 100 + (c <| energy_saver);
    return p + {e1};
  }}\n"
    )
}

/// Double arithmetic floored back to int.
fn math_method(rng: &mut Rng) -> String {
    let x = format!("{}.{}", rng.range(1, 40), rng.range(0, 10));
    let y = format!("{}.{}", rng.range(1, 40), rng.range(0, 10));
    format!(
        "  int maths0() {{
    let x = Math.fmax({x} * Ext.battery(), {y});
    let z = Math.sqrt(x) + Math.pow(x, 0.5) + Math.toDouble(Math.floor(x));
    return Math.floor(z * 10.0) + Math.abs(Math.floor({y} - x));
  }}\n"
    )
}
