//! The run settings each entry point (the `ent` CLI, a served run, a
//! fig/bench binary) resolves once and then passes explicitly: nothing
//! below the entry point reads the environment for them, and no
//! process-global holds one.

use crate::{Enforcement, Engine, RuntimeConfig, TierUp};

/// The resolved engine, tier-up threshold and enforcement strategy of a
/// run. `Settings::default()` is the runtime defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Settings {
    /// `--engine` / `ENT_ENGINE`.
    pub engine: Engine,
    /// `--tier-up` / `ENT_TIER_UP` (only the threaded engine reads it).
    pub tier_up: TierUp,
    /// `--enforce` / `ENT_ENFORCE`.
    pub enforcement: Enforcement,
}

impl Settings {
    /// Resolves each setting as flag, else environment variable, else
    /// runtime default; an unset or unparseable variable counts as absent.
    /// `env` looks a variable up (`|name| std::env::var(name).ok()` for
    /// the process environment), so tests can pass a fake.
    pub fn resolve(
        engine: Option<Engine>,
        tier_up: Option<TierUp>,
        enforcement: Option<Enforcement>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Settings {
        fn pick<T: Default>(
            flag: Option<T>,
            var: Option<String>,
            parse: fn(&str) -> Option<T>,
        ) -> T {
            flag.or_else(|| var.and_then(|v| parse(v.trim())))
                .unwrap_or_default()
        }
        Settings {
            engine: pick(engine, env("ENT_ENGINE"), Engine::parse),
            tier_up: pick(tier_up, env("ENT_TIER_UP"), TierUp::parse),
            enforcement: pick(enforcement, env("ENT_ENFORCE"), Enforcement::parse),
        }
    }

    /// The settings of a run with no flags, from the process environment.
    pub fn from_env() -> Settings {
        Settings::resolve(None, None, None, |name| std::env::var(name).ok())
    }

    /// `config` with these settings in force.
    #[must_use]
    pub fn apply(self, config: RuntimeConfig) -> RuntimeConfig {
        RuntimeConfig {
            engine: self.engine,
            tier_up: self.tier_up,
            enforcement: self.enforcement,
            ..config
        }
    }
}
