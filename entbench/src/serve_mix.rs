//! `serve_mix`: an in-process `ent-serve` on a loopback port, driven by
//! closed-loop client connections: two, or `nproc` when that is less.
//!
//! Each client draws, per request: 70% `run` of one of 32 hot programs
//! (cache hits once warm), 20% `run` of a program never sent before (a
//! miss), 10% `check` of a hot program. Hot programs are ones the oracle
//! finishes with exit 0 or 4 — a program that fails at runtime on every
//! run is quarantined by design, which is the soak's subject, not this
//! traffic's. Misses are sent once each, so they cannot be quarantined and
//! are not filtered. The server runs `ServerConfig::default()` with
//! `workers = nproc` and the per-tenant admission limits lifted, so a
//! faster server never reads as more sheds.
//!
//! Set-up is `Server::start` plus a warm-up that submits every hot program
//! once. It runs [`SETUP_REPS`] times in each of the [`SETUP_STRETCHES`]
//! stretches, the first before the traffic and the rest between parts of
//! it, each time on its own set of programs, so each warm-up compiles;
//! `setup_s` is the median repetition. The last server of the first
//! stretch and its hot set carry the traffic. Only that set is drawn
//! through the oracle; the others are the generator's first programs of
//! the same size, unfiltered. A later stretch's warm-ups push the hot set
//! out of the program cache, so after each one the traffic's server is
//! warmed again, untimed, to the state the first stretch left.
//! Every reply line is compared byte for byte with the reply built from
//! the tree walker's outcome of the same request. A request with no reply
//! within [`OP_TIMEOUT`] fails, and its client reconnects. `peak_rss_mb`
//! is reset after the oracle picks the hot sets, so it covers set-up and
//! traffic.
//!
//! The traced window alternates the real path — even ops over TCP
//! (`serve.tcp`), odd ops in-process through `Server::handle_line`
//! (`serve.server.submit`) and the reply channel (`serve.server.wait`) —
//! and after each reply replays the worker's job on the client thread,
//! one public call per layer, under a `probe` root: `parse_request`,
//! `try_lowered_cached` for hits or the frontend passes for misses and
//! checks, `run_prepared` on a fresh interpreter stack, `Reply::to_json`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ent_cli::{execute, run_prepared};
use ent_runtime::{json_escape, lower_program, Engine};
use ent_serve::{parse_request, AdmissionConfig, Reply, Server, ServerConfig, Submission};
use ent_workloads::{lowered_cache_stats, try_lowered_cached};

use crate::common::{
    host_speed, mix, phases, probe_warm, timed_reps, traced_frontend, traced_run, window_part,
    RunReport, Traced, SETUP_STRETCHES,
};
use crate::gen;
use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, Window};
use crate::trace::Tracer;

const HOT: usize = 32;

/// Set-up repetitions in each stretch: about 0.2 s of them on a 2 GHz
/// Xeon.
const SETUP_REPS: usize = 5;

/// Longest a request may wait for its reply before it counts as failed;
/// the slowest replies take a few milliseconds.
const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// What one request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Check,
}

/// Workload settings.
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to add the traced window.
    pub trace: bool,
}

/// Target size of every served program. One size keeps each request kind
/// one latency cluster, so the median sits inside the hits rather than on
/// the edge between two program sizes.
const PROGRAM_BYTES: usize = 2560;

/// A generated program.
fn source(seed: u64, label: u64, i: u64) -> String {
    gen::program(mix(seed, label, i), PROGRAM_BYTES)
}

fn request_line(kind: Kind, id: &str, src: &str) -> String {
    let op = if kind == Kind::Check { "check" } else { "run" };
    format!(
        "{{\"op\": \"{op}\", \"id\": \"{id}\", \"tenant\": \"bench\", \"src\": \"{}\"}}",
        json_escape(src)
    )
}

/// The reply the server must send for `line`, built from the tree
/// walker's outcome of the same request.
fn oracle_reply(line: &str) -> String {
    let mut request = parse_request(line).expect("the benchmark's request lines parse");
    request.options.engine = Some(Engine::Tree);
    let reply = match request.options.command {
        ent_cli::Command::Check => {
            let (code, output) = execute(&request.options, &request.src);
            Reply::Done {
                id: request.id.clone(),
                code,
                output,
                energy_j: 0.0,
                time_s: 0.0,
                attempts: 1,
            }
        }
        _ => match ent_core::compile(&request.src) {
            Ok(compiled) => {
                let outcome = run_prepared(&request.options, &lower_program(&compiled));
                Reply::done(&request.id, &outcome, 1)
            }
            Err(e) => Reply::error(
                &request.id,
                ent_serve::ErrorKind::CompileError,
                e.render(&request.src),
            ),
        },
    };
    reply.to_json()
}

/// Hot-set candidates for set-up repetition `rep`, kept when the oracle
/// exits 0 or 4.
fn hot_set(seed: u64, rep: usize) -> Vec<String> {
    let mut hot = Vec::new();
    let mut i = 0;
    while hot.len() < HOT {
        let src = source(seed, 10 + rep as u64, i);
        i += 1;
        let reply = oracle_reply(&request_line(Kind::Hit, "h", &src));
        if reply.contains("\"code\": 0,") || reply.contains("\"code\": 4,") {
            hot.push(src);
        }
    }
    hot
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        admission: AdmissionConfig {
            burst: 1e12,
            refill_per_s: 1e12,
            energy_budget_j: f64::INFINITY,
        },
        ..ServerConfig::default()
    }
}

/// Submits each of `programs` once as a `run` and waits for its reply.
fn warm_up(server: &Server, programs: &[String]) {
    for (i, src) in programs.iter().enumerate() {
        let line = request_line(Kind::Hit, &format!("warm-{i}"), src);
        let _ = wait(server.handle_line(&line, 0));
    }
}

fn wait(sub: Submission) -> Option<Reply> {
    match sub {
        Submission::Immediate(r) => Some(r),
        Submission::Queued(rx) => rx.recv_timeout(OP_TIMEOUT).ok(),
    }
}

/// Which program a request carried.
#[derive(Clone, Copy, Debug)]
enum Prog {
    /// Index into the hot set.
    Hot(usize),
    /// The `k`-th miss of client `c`.
    Miss(usize, u64),
}

/// One request a client sent, for the oracle pass.
struct Sent {
    kind: Kind,
    prog: Prog,
    id: String,
    /// Hash of the reply line (the run keeps no reply text, so memory
    /// does not grow with throughput); `None` when no reply came.
    reply: Option<u64>,
    latency_us: f64,
}

fn line_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// One client's closed loop: draws requests from its own stream, sends
/// each, and waits for its reply.
struct Client<'a> {
    id: usize,
    seed: u64,
    hot: &'a [String],
    server: &'a Server,
    addr: SocketAddr,
    stream: BufReader<TcpStream>,
    writer: TcpStream,
    next_miss: u64,
    rng: gen::Rng,
}

impl Client<'_> {
    fn draw(&mut self) -> (Kind, Prog) {
        let r = self.rng.next_u64() % 100;
        let hot = (self.rng.next_u64() % HOT as u64) as usize;
        if r < 70 {
            (Kind::Hit, Prog::Hot(hot))
        } else if r < 90 {
            self.next_miss += 1;
            (Kind::Miss, Prog::Miss(self.id, self.next_miss - 1))
        } else {
            (Kind::Check, Prog::Hot(hot))
        }
    }

    /// Sends `line` and reads its reply. On any failure, a timeout
    /// included, the connection is replaced, so a late reply can never be
    /// read as the next request's.
    fn tcp_round_trip(&mut self, line: &str) -> Option<String> {
        let reply = self.try_round_trip(line);
        if reply.is_none() {
            (self.stream, self.writer) = connect(self.addr);
        }
        reply
    }

    fn try_round_trip(&mut self, line: &str) -> Option<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes()).ok()?;
        let mut reply = String::new();
        match self.stream.read_line(&mut reply) {
            Ok(n) if n > 0 && reply.ends_with('\n') => {
                reply.pop();
                Some(reply)
            }
            _ => None,
        }
    }

    /// Runs ops until `budget` is spent. A traced client alternates TCP
    /// and in-process submission and replays each job under a `probe`
    /// root after its reply.
    fn run(
        &mut self,
        budget: Duration,
        op_base: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> (Window, Vec<Sent>) {
        let mut window = Window::default();
        let mut sent = Vec::new();
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < budget {
            let op = op_base + n;
            let (kind, prog) = self.draw();
            let id = format!("c{}-{op}", self.id);
            let src = match prog {
                Prog::Hot(i) => self.hot[i].clone(),
                Prog::Miss(c, k) => miss_source(self.seed, c, k),
            };
            let line = request_line(kind, &id, &src);
            let t = Instant::now();
            let reply = match tracer.as_deref_mut() {
                None => self.tcp_round_trip(&line),
                Some(tr) => {
                    let root = tr.begin("op", op);
                    let reply = if n.is_multiple_of(2) {
                        let s = tr.begin("serve.tcp", op);
                        let reply = self.tcp_round_trip(&line);
                        tr.end(s, line.len() as u64, 0);
                        reply
                    } else {
                        let s = tr.begin("serve.server.submit", op);
                        let sub = self.server.handle_line(&line, 0);
                        tr.end(s, line.len() as u64, 0);
                        let s = tr.begin("serve.server.wait", op);
                        let reply = wait(sub);
                        tr.end(s, 0, 0);
                        let s = tr.begin("serve.proto.reply_json", op);
                        let json = reply.map(|r| r.to_json());
                        tr.end(s, 0, 0);
                        json
                    };
                    tr.end(root, 0, 0);
                    reply
                }
            };
            let elapsed = t.elapsed();
            window.attempted += 1;
            if reply.is_some() {
                window.record(start, elapsed);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                replay(tr, op, kind, &line);
            }
            sent.push(Sent {
                kind,
                prog,
                id,
                reply: reply.as_deref().map(line_hash),
                latency_us: elapsed.as_secs_f64() * 1e6,
            });
            n += 1;
        }
        window.elapsed_s = start.elapsed().as_secs_f64();
        (window, sent)
    }
}

fn miss_source(seed: u64, client: usize, k: u64) -> String {
    source(seed, 100 + client as u64, k)
}

/// The worker's job for `line`, replayed on this thread one layer call at
/// a time under a `probe` root.
fn replay(t: &mut Tracer, op: u64, kind: Kind, line: &str) {
    let root = t.begin("probe", op);
    let s = t.begin("serve.proto.parse", op);
    let request = parse_request(line);
    t.end(s, line.len() as u64, 0);
    let Ok(request) = request else {
        t.end(root, 0, 0);
        return;
    };
    match kind {
        Kind::Check => {
            let _ = traced_frontend(t, op, &request.src, false);
        }
        Kind::Hit => {
            let s = t.begin("workloads.cache", op);
            let lowered = try_lowered_cached(&request.src);
            t.end(s, request.src.len() as u64, 0);
            if let Ok(lowered) = lowered {
                let _ = traced_run(t, op, &request.options, &lowered, false);
                probe_warm(t, op, &request.options, &lowered);
            }
        }
        Kind::Miss => {
            if let Some(Some(lowered)) = traced_frontend(t, op, &request.src, true) {
                let _ = traced_run(t, op, &request.options, &lowered, true);
                probe_warm(t, op, &request.options, &lowered);
            }
        }
    }
    t.end(root, 0, 0);
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(OP_TIMEOUT))
        .expect("set the reply timeout");
    let writer = stream.try_clone().expect("clone the client socket");
    (BufReader::new(stream), writer)
}

/// Runs `budget` of traffic on every client in parallel; returns the
/// merged window, the sent requests, and (traced) the spans.
fn traffic(
    clients: &mut [Client<'_>],
    budget: Duration,
    op_base: u64,
    trace: bool,
    epoch: Instant,
) -> (Window, Vec<Sent>, Vec<crate::trace::Span>) {
    let results: Vec<(Window, Vec<Sent>, Vec<crate::trace::Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut tracer = trace.then(|| Tracer::new(epoch, c.id as u32));
                    let (w, sent) = c.run(budget, op_base, tracer.as_mut());
                    (w, sent, tracer.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window = Window::default();
    let mut sent = Vec::new();
    let mut spans = Vec::new();
    for (w, s, sp) in results {
        window.merge(w);
        sent.extend(s);
        spans.extend(sp);
    }
    (window, sent, spans)
}

/// Counts replies that are missing or differ from the oracle's (compared
/// by 64-bit SipHash of the whole line). Expected replies are built with an empty
/// id and the id is spliced in; hot programs' are computed once.
fn check_replies(seed: u64, hot: &[String], sent: &[Sent]) -> u64 {
    let mut cache: HashMap<(bool, usize), String> = HashMap::new();
    let mut failed = 0;
    for s in sent {
        let check = s.kind == Kind::Check;
        let expected = match s.prog {
            Prog::Hot(i) => cache
                .entry((check, i))
                .or_insert_with(|| oracle_reply(&request_line(s.kind, "", &hot[i])))
                .clone(),
            Prog::Miss(c, k) => oracle_reply(&request_line(s.kind, "", &miss_source(seed, c, k))),
        };
        let expected = expected.replacen(
            "\"id\": \"\"",
            &format!("\"id\": \"{}\"", json_escape(&s.id)),
            1,
        );
        if s.reply != Some(line_hash(&expected)) {
            failed += 1;
        }
    }
    failed
}

/// Runs the workload.
pub fn run(cfg: &Config) -> RunReport {
    let (untraced, traced) = phases(cfg.seconds, cfg.trace);
    let mut report = RunReport::default();
    let hot_sets: Vec<Vec<String>> = (0..SETUP_STRETCHES as usize * SETUP_REPS)
        .map(|r| {
            if r + 1 == SETUP_REPS {
                hot_set(cfg.seed, r)
            } else {
                (0..HOT as u64)
                    .map(|i| source(cfg.seed, 10 + r as u64, i))
                    .collect()
            }
        })
        .collect();
    if !reset_peak_rss() {
        report
            .notes
            .push(("peak_rss_includes_oracle".into(), "true".into()));
    }

    let mut stretches = hot_sets.chunks(SETUP_REPS).map(|sets| {
        timed_reps(sets.len(), |rep| {
            let server = Server::start(server_config());
            warm_up(&server, &sets[rep]);
            server
        })
    });
    let (mut setup_times, server) = stretches.next().expect("a first set-up stretch");
    let hot = &hot_sets[SETUP_REPS - 1];
    let server = Arc::new(server);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    {
        let server = Arc::clone(&server);
        std::thread::Builder::new()
            .name("entbench-serve".into())
            .spawn(move || ent_serve::tcp::serve(listener, server, 500))
            .expect("spawn the accept loop");
    }

    // Two connections, but never more than the CPUs the process may use.
    let n_clients = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let mut clients: Vec<Client<'_>> = (0..n_clients)
        .map(|id| {
            let (stream, writer) = connect(addr);
            Client {
                id,
                seed: cfg.seed,
                hot,
                server: &server,
                addr,
                stream,
                writer,
                next_miss: 0,
                rng: gen::Rng::new(mix(cfg.seed, 50 + id as u64, 0)),
            }
        })
        .collect();

    let epoch = Instant::now();
    let mut window = Window::default();
    let mut sent = Vec::new();
    // Program cache (hits, misses, evictions) over the traffic alone.
    let mut cache = (0, 0, 0);
    for part in 0..u64::from(SETUP_STRETCHES) {
        if part > 0 {
            setup_times.extend(stretches.next().expect("a set-up stretch").0);
            warm_up(&server, hot);
        }
        report.host_speed.push(host_speed());
        let c0 = lowered_cache_stats();
        let (w, s, _) = traffic(
            &mut clients,
            window_part(untraced),
            part << 24,
            false,
            epoch,
        );
        let c1 = lowered_cache_stats();
        cache.0 += c1.hits - c0.hits;
        cache.1 += c1.misses - c0.misses;
        cache.2 += c1.evictions - c0.evictions;
        window.append(w);
        sent.extend(s);
    }
    report.peak_rss_mb = peak_rss_mb();
    report.setup_s = median(&setup_times);
    window.failed = check_replies(cfg.seed, hot, &sent);
    report.window = window;

    if cfg.trace {
        let (mut tw, tsent, spans) = traffic(&mut clients, traced, 1 << 32, true, epoch);
        tw.failed = check_replies(cfg.seed, hot, &tsent);
        let mut extras = BTreeMap::new();
        let (hits, misses, evictions) = cache;
        let lookups = hits + misses;
        extras.insert(
            "workloads.cache.hit_ratio",
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
        );
        extras.insert("workloads.cache.evictions", evictions as f64);
        let c = server.counters();
        for (name, v) in [
            ("serve.server.shed.overloaded", c.shed_overloaded),
            ("serve.server.shed.rate_limited", c.shed_rate_limited),
            ("serve.server.shed.energy_budget", c.shed_energy_budget),
            ("serve.server.shed.quarantined", c.shed_quarantined),
            ("serve.server.shed.fallback", c.shed_fallback),
            ("serve.server.compile_errors", c.compile_errors),
            ("serve.server.runtime_errors", c.runtime_errors),
        ] {
            extras.insert(name, v as f64);
        }
        report.traced = Some(Traced {
            ops: tw.latencies_us.len() as u64,
            window: tw,
            spans,
            extras,
        });
    }
    let c = server.counters();
    report.notes.push((
        "server_counters".into(),
        format!(
            "accepted={} completed={} ok_runs={} checks={} runtime_errors={} compile_errors={} sheds={}",
            c.accepted,
            c.completed,
            c.ok_runs,
            c.checks,
            c.runtime_errors,
            c.compile_errors,
            c.shed_overloaded
                + c.shed_rate_limited
                + c.shed_energy_budget
                + c.shed_quarantined
                + c.shed_fallback
        ),
    ));
    for kind in [Kind::Hit, Kind::Miss, Kind::Check] {
        let mut lat: Vec<f64> = sent
            .iter()
            .filter(|s| s.kind == kind && s.reply.is_some())
            .map(|s| s.latency_us)
            .collect();
        lat.sort_by(f64::total_cmp);
        report.notes.push((
            format!("latency_{kind:?}").to_lowercase(),
            format!(
                "n={} p50_us={:.1} p99_us={:.1}",
                lat.len(),
                percentile(&lat, 0.5),
                percentile(&lat, 0.99)
            ),
        ));
    }
    report.notes.push((
        "cache_untraced".into(),
        format!("hits={} misses={} evictions={}", cache.0, cache.1, cache.2),
    ));
    report
}
