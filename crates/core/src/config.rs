//! Runtime configuration: the validated [`RuntimeBuilder`] entry point
//! (reached via [`crate::Runtime::builder`]), the plain [`Config`] knob
//! bag it is built from, and the typed [`ConfigError`] rejections.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use crate::fault::{FaultPlan, FaultSite};
use crate::runtime::{Runtime, RuntimeError};

/// How the runtime treats latency-incurring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyMode {
    /// Latency-hiding work stealing (the paper's algorithm): a task that
    /// incurs latency suspends, its worker switches to other work, and the
    /// task is reinjected through the resumed-vertices machinery.
    #[default]
    Hide,
    /// The baseline the paper compares against: the worker *blocks* (the
    /// thread sleeps) for the full latency. One deque per worker; classic
    /// work stealing.
    Block,
}

/// Configuration for [`crate::Runtime`]. Build with the fluent setters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of worker threads (default: available parallelism).
    pub workers: usize,
    /// Latency handling mode.
    pub mode: LatencyMode,
    /// Hard cap on how many tasks one steal may transfer (steal-half
    /// claims `ceil(live/2)` up to this limit). The default of `1` is the
    /// paper's analyzed single-task steal; raising it enables steal-half
    /// batching.
    pub steal_batch_limit: usize,
    /// Capacity of the global deque registry (`gDeques`). By Lemma 7 the
    /// algorithm needs at most `P · (U + 1)` deques; the default of 65 536
    /// is comfortable for any realistic suspension width.
    pub registry_capacity: usize,
    /// Number of live-set index shards in the deque registry. `0` (the
    /// default) means one shard per worker, which keeps each worker's
    /// register/release traffic on its own shard.
    pub registry_shards: usize,
    /// How long an idle worker parks between scavenging rounds, in
    /// microseconds. Bounds wake-up staleness for events that race with
    /// parking.
    pub park_micros: u64,
    /// Pfor unfolding grain: resumed batches of at most this size are
    /// scheduled directly; larger batches split in half into stealable
    /// subtasks.
    pub pfor_grain: usize,
    /// Seed for the per-worker victim-selection RNGs.
    pub seed: u64,
    /// Tick granularity of the timer wheel. Deadlines are rounded up to
    /// the next tick boundary, so this bounds both resume latency slop and
    /// the batching window: suspensions expiring within one tick of each
    /// other are delivered together.
    pub timer_tick: Duration,
    /// Number of timer-wheel shards. `0` (the default) means one shard per
    /// worker, which makes a worker's insertions contend only with
    /// expirations of its own timers.
    pub timer_shards: usize,
    /// Maximum resume events delivered to a worker in one batch. Larger
    /// batches amortize wake-up and locking cost; smaller ones reduce the
    /// burst a single worker must absorb before its next steal check.
    pub resume_batch_limit: usize,
    /// Per-worker trace ring capacity in events (rounded up to a power of
    /// two). `0` (the default) disables tracing entirely: no rings are
    /// allocated and every event site reduces to one never-taken branch.
    /// See [`crate::trace`].
    pub trace_capacity: usize,
    /// Deterministic fault-injection schedule for chaos testing. `None`
    /// (the default) builds no injector at all — every injection site
    /// reduces to one never-taken branch, the same zero-cost pattern as
    /// the tracer. See [`crate::fault`].
    pub fault_plan: Option<FaultPlan>,
    /// How many times a panicked worker's scheduler loop may be respawned
    /// (per worker, on the same OS thread) before the runtime gives up and
    /// poisons. `0` (the default) keeps the fail-stop behavior: the first
    /// scheduler-loop panic poisons the runtime. A nonzero budget enables
    /// the supervision tier: the dead incarnation's deques are rescued via
    /// `Registry::rescue`, salvageable tasks re-injected, and stale resume
    /// deliveries re-routed (see the `workers_restarted`,
    /// `deques_rescued` and `resumes_rerouted` metrics).
    pub worker_respawn_budget: u64,
    /// Number of reactor shards a sharded I/O driver (e.g. `lhws_net`'s
    /// `Reactor`) should run: independent epoll instances + event threads,
    /// with descriptors routed by `fd % reactor_shards`. The default of
    /// `1` is byte-compatible with the historical single-threaded reactor;
    /// `0` means one shard per worker. Capped at
    /// [`MAX_REACTOR_SHARDS`]; drivers may also override it per instance
    /// (`Reactor::builder(rt).shards(n)`). Ignored in
    /// [`LatencyMode::Block`], which runs no reactor at all.
    pub reactor_shards: usize,
    /// Safety timeout applied to blocking socket reads/accepts in
    /// [`LatencyMode::Block`] (default 30 s). Block mode has no reactor:
    /// a worker thread sleeps inside the kernel call, so a peer that goes
    /// silent would otherwise pin that worker forever. The timeout bounds
    /// the damage — the read fails with `WouldBlock`/`TimedOut` and the
    /// worker returns to stealing. This is the degraded-Block semantics:
    /// Block mode trades the paper's latency hiding for simplicity, and
    /// this knob is the only thing standing between it and an unbounded
    /// worker stall. Ignored in [`LatencyMode::Hide`] (the reactor's
    /// deadline machinery handles it). Zero is rejected at build time.
    pub io_safety_timeout: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mode: LatencyMode::default(),
            steal_batch_limit: 1,
            registry_capacity: 1 << 16,
            registry_shards: 0,
            park_micros: 100,
            pfor_grain: 4,
            seed: 0x1A7E_11C1,
            timer_tick: Duration::from_micros(50),
            timer_shards: 0,
            resume_batch_limit: 1024,
            trace_capacity: 0,
            fault_plan: None,
            worker_respawn_budget: 0,
            reactor_shards: 1,
            io_safety_timeout: Duration::from_secs(30),
        }
    }
}

/// Hard cap on [`Config::reactor_shards`]: each shard is an epoll
/// instance, an eventfd, and an OS thread, so a runaway value is a
/// resource bug, not a tuning choice.
pub const MAX_REACTOR_SHARDS: usize = 1024;

impl Config {
    /// Sets the number of worker threads.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the latency-handling mode.
    pub fn mode(mut self, m: LatencyMode) -> Self {
        self.mode = m;
        self
    }

    /// Sets the per-steal task transfer cap (clamped to ≥ 1; `1` is the
    /// paper's single-task steal).
    pub fn steal_batch_limit(mut self, n: usize) -> Self {
        self.steal_batch_limit = n.max(1);
        self
    }

    /// Sets the registry capacity.
    pub fn registry_capacity(mut self, c: usize) -> Self {
        self.registry_capacity = c.max(self.workers);
        self
    }

    /// Sets the live-set shard count (`0` = one shard per worker).
    pub fn registry_shards(mut self, n: usize) -> Self {
        self.registry_shards = n;
        self
    }

    /// Sets the idle park interval in microseconds.
    pub fn park_micros(mut self, us: u64) -> Self {
        self.park_micros = us.max(1);
        self
    }

    /// Sets the pfor unfolding grain.
    pub fn pfor_grain(mut self, g: usize) -> Self {
        self.pfor_grain = g.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the timer-wheel tick granularity (clamped to ≥ 1µs).
    pub fn timer_tick(mut self, d: Duration) -> Self {
        self.timer_tick = d.max(Duration::from_micros(1));
        self
    }

    /// Sets the timer-wheel shard count (`0` = one shard per worker).
    pub fn timer_shards(mut self, n: usize) -> Self {
        self.timer_shards = n;
        self
    }

    /// Sets the per-delivery resume batch limit.
    pub fn resume_batch_limit(mut self, n: usize) -> Self {
        self.resume_batch_limit = n.max(1);
        self
    }

    /// Sets the per-worker trace ring capacity (`0` disables tracing).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Enables deterministic fault injection with the given plan. See
    /// [`crate::fault`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the per-worker respawn budget (`0` = fail-stop, the default).
    pub fn worker_respawn_budget(mut self, n: u64) -> Self {
        self.worker_respawn_budget = n;
        self
    }

    /// Sets the reactor shard count (`0` = one shard per worker; clamped
    /// to [`MAX_REACTOR_SHARDS`]).
    pub fn reactor_shards(mut self, n: usize) -> Self {
        self.reactor_shards = n.min(MAX_REACTOR_SHARDS);
        self
    }

    /// Sets the Block-mode I/O safety timeout (clamped to ≥ 1 ms).
    pub fn io_safety_timeout(mut self, d: Duration) -> Self {
        self.io_safety_timeout = d.max(Duration::from_millis(1));
        self
    }

    /// Validates the knob combination, returning the first violation.
    ///
    /// The fluent [`Config`] setters clamp rather than fail, so a `Config`
    /// built through them always passes. This catches direct field writes
    /// (all fields are `pub`) and is the single checker behind
    /// [`RuntimeBuilder::build`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.timer_tick.is_zero() {
            return Err(ConfigError::ZeroTimerTick);
        }
        if self.resume_batch_limit == 0 {
            return Err(ConfigError::ZeroResumeBatchLimit);
        }
        if self.pfor_grain == 0 {
            return Err(ConfigError::ZeroPforGrain);
        }
        if self.steal_batch_limit == 0 {
            return Err(ConfigError::ZeroStealBatchLimit);
        }
        if self.park_micros == 0 {
            return Err(ConfigError::ZeroParkInterval);
        }
        if self.io_safety_timeout.is_zero() {
            return Err(ConfigError::ZeroIoSafetyTimeout);
        }
        if self.reactor_shards > MAX_REACTOR_SHARDS {
            return Err(ConfigError::TooManyReactorShards {
                shards: self.reactor_shards,
            });
        }
        if self.registry_capacity < self.workers {
            return Err(ConfigError::RegistryTooSmall {
                capacity: self.registry_capacity,
                workers: self.workers,
            });
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        Ok(())
    }
}

/// A rejected [`RuntimeBuilder`] knob combination. Each variant names the
/// specific invalid setting so callers can report (or test) it precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `workers == 0`: the runtime needs at least one worker thread.
    ZeroWorkers,
    /// `timer_shards` was explicitly set to `0`. On the plain [`Config`]
    /// struct `0` means "one shard per worker", but the builder separates
    /// the auto default from an explicit zero and rejects the latter.
    ZeroTimerShards,
    /// `registry_shards` was explicitly set to `0` through the builder
    /// (on the plain [`Config`] struct `0` means "one shard per worker").
    ZeroRegistryShards,
    /// `timer_tick == 0`: the wheel cannot advance in zero-length ticks.
    ZeroTimerTick,
    /// `resume_batch_limit == 0`: deliveries could never carry an event.
    ZeroResumeBatchLimit,
    /// `pfor_grain == 0`: batch splitting would never terminate.
    ZeroPforGrain,
    /// `steal_batch_limit == 0`: a steal could never transfer a task.
    ZeroStealBatchLimit,
    /// `park_micros == 0`: idle workers would spin without ever parking.
    ZeroParkInterval,
    /// `io_safety_timeout == 0`: Block-mode reads would block forever on a
    /// silent peer, pinning the worker thread with no way back.
    ZeroIoSafetyTimeout,
    /// `reactor_shards` exceeds [`MAX_REACTOR_SHARDS`]: each shard costs
    /// an epoll instance, an eventfd, and an OS thread.
    TooManyReactorShards {
        /// The offending shard count.
        shards: usize,
    },
    /// `registry_capacity < workers`: each worker needs at least its one
    /// initial deque slot in the global registry.
    RegistryTooSmall {
        /// The configured registry capacity.
        capacity: usize,
        /// The configured worker count it must cover.
        workers: usize,
    },
    /// A [`FaultPlan`] rate exceeds 1 000 000 ppm (rates are fractions of
    /// one million visits).
    FaultRateOutOfRange {
        /// The injection site whose rate is out of range.
        site: FaultSite,
        /// The offending rate.
        ppm: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::ZeroTimerShards => {
                write!(
                    f,
                    "timer_shards must be >= 1 (omit it for one shard per worker)"
                )
            }
            ConfigError::ZeroRegistryShards => {
                write!(
                    f,
                    "registry_shards must be >= 1 (omit it for one shard per worker)"
                )
            }
            ConfigError::ZeroTimerTick => write!(f, "timer_tick must be non-zero"),
            ConfigError::ZeroResumeBatchLimit => {
                write!(f, "resume_batch_limit must be >= 1")
            }
            ConfigError::ZeroPforGrain => write!(f, "pfor_grain must be >= 1"),
            ConfigError::ZeroStealBatchLimit => {
                write!(f, "steal_batch_limit must be >= 1")
            }
            ConfigError::ZeroParkInterval => write!(f, "park_micros must be >= 1"),
            ConfigError::ZeroIoSafetyTimeout => {
                write!(f, "io_safety_timeout must be non-zero")
            }
            ConfigError::TooManyReactorShards { shards } => write!(
                f,
                "reactor_shards ({shards}) exceeds MAX_REACTOR_SHARDS ({MAX_REACTOR_SHARDS})"
            ),
            ConfigError::RegistryTooSmall { capacity, workers } => write!(
                f,
                "registry_capacity ({capacity}) must be >= workers ({workers})"
            ),
            ConfigError::FaultRateOutOfRange { site, ppm } => {
                write!(f, "fault rate for {site:?} ({ppm} ppm) exceeds 1000000 ppm")
            }
        }
    }
}

impl Error for ConfigError {}

/// Validated constructor for [`Runtime`], reached via
/// [`Runtime::builder`](crate::Runtime::builder).
///
/// Unlike the fluent [`Config`] setters, which silently clamp out-of-range
/// values, the builder's setters store exactly what they are given and
/// [`RuntimeBuilder::build`] rejects invalid combinations with a typed
/// [`ConfigError`] (wrapped in [`RuntimeError::InvalidConfig`]). This is
/// the recommended entry point; `Config` remains as the plain knob bag for
/// call sites that predate the builder.
///
/// ```
/// use lhws_core::Runtime;
///
/// let rt = Runtime::builder().workers(2).build().unwrap();
/// assert_eq!(rt.workers(), 2);
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "builders do nothing until `build()` is called"]
pub struct RuntimeBuilder {
    cfg: Config,
    /// Distinguishes "never set" (auto: one shard per worker) from an
    /// explicit value, so an explicit `0` can be rejected.
    timer_shards: Option<usize>,
    /// Same auto-vs-explicit split for the registry's live-set shards.
    registry_shards: Option<usize>,
}

impl RuntimeBuilder {
    /// Starts from defaults ([`Config::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads. `0` is rejected at build time.
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Sets the latency-handling mode.
    pub fn mode(mut self, m: LatencyMode) -> Self {
        self.cfg.mode = m;
        self
    }

    /// Sets the per-steal task transfer cap (steal-half batching). `0` is
    /// rejected at build time; `1` (the default) is the paper's
    /// single-task steal.
    pub fn steal_batch_limit(mut self, n: usize) -> Self {
        self.cfg.steal_batch_limit = n;
        self
    }

    /// Sets the registry capacity. Must cover at least one deque per
    /// worker or build time rejects it.
    pub fn registry_capacity(mut self, c: usize) -> Self {
        self.cfg.registry_capacity = c;
        self
    }

    /// Sets the live-set shard count. Omit for the default of one shard
    /// per worker; an explicit `0` is rejected at build time.
    pub fn registry_shards(mut self, n: usize) -> Self {
        self.registry_shards = Some(n);
        self
    }

    /// Sets the idle park interval in microseconds. `0` is rejected at
    /// build time.
    pub fn park_micros(mut self, us: u64) -> Self {
        self.cfg.park_micros = us;
        self
    }

    /// Sets the pfor unfolding grain. `0` is rejected at build time.
    pub fn pfor_grain(mut self, g: usize) -> Self {
        self.cfg.pfor_grain = g;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }

    /// Sets the timer-wheel tick granularity. A zero duration is rejected
    /// at build time.
    pub fn timer_tick(mut self, d: Duration) -> Self {
        self.cfg.timer_tick = d;
        self
    }

    /// Sets the timer-wheel shard count. Omit for the default of one shard
    /// per worker; an explicit `0` is rejected at build time.
    pub fn timer_shards(mut self, n: usize) -> Self {
        self.timer_shards = Some(n);
        self
    }

    /// Sets the per-delivery resume batch limit. `0` is rejected at build
    /// time.
    pub fn resume_batch_limit(mut self, n: usize) -> Self {
        self.cfg.resume_batch_limit = n;
        self
    }

    /// Enables event tracing with the given per-worker ring capacity in
    /// events (rounded up to a power of two; `0` leaves tracing off). See
    /// [`crate::trace`].
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.cfg.trace_capacity = events;
        self
    }

    /// Enables deterministic fault injection with the given plan. Rates
    /// above 1 000 000 ppm are rejected at build time. See [`crate::fault`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Sets the per-worker respawn budget. `0` (the default) keeps
    /// fail-stop poisoning; a nonzero budget enables worker supervision
    /// with deque rescue (see [`Config::worker_respawn_budget`]).
    pub fn worker_respawn_budget(mut self, n: u64) -> Self {
        self.cfg.worker_respawn_budget = n;
        self
    }

    /// Sets the reactor shard count picked up by sharded I/O drivers.
    /// Unlike `timer_shards`/`registry_shards`, an explicit `0` is legal
    /// and means "one shard per worker" (there is no separate auto
    /// default to protect — the default of `1` reproduces the historical
    /// single-threaded reactor). Values above [`MAX_REACTOR_SHARDS`] are
    /// rejected at build time.
    pub fn reactor_shards(mut self, n: usize) -> Self {
        self.cfg.reactor_shards = n;
        self
    }

    /// Sets the Block-mode I/O safety timeout (see
    /// [`Config::io_safety_timeout`] for the degraded-Block semantics this
    /// bounds). A zero duration is rejected at build time.
    pub fn io_safety_timeout(mut self, d: Duration) -> Self {
        self.cfg.io_safety_timeout = d;
        self
    }

    /// Validates the configuration without starting a runtime, returning
    /// the would-be [`Config`].
    pub fn validate(&self) -> Result<Config, ConfigError> {
        if let Some(n) = self.timer_shards {
            if n == 0 {
                return Err(ConfigError::ZeroTimerShards);
            }
        }
        if let Some(n) = self.registry_shards {
            if n == 0 {
                return Err(ConfigError::ZeroRegistryShards);
            }
        }
        let mut cfg = self.cfg;
        cfg.timer_shards = self.timer_shards.unwrap_or(0);
        cfg.registry_shards = self.registry_shards.unwrap_or(0);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the knobs and starts the runtime.
    pub fn build(&self) -> Result<Runtime, RuntimeError> {
        let cfg = self.validate().map_err(RuntimeError::InvalidConfig)?;
        Runtime::new(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.workers >= 1);
        assert_eq!(c.mode, LatencyMode::Hide);
        assert_eq!(c.steal_batch_limit, 1, "single-task steal by default");
        assert!(c.registry_capacity >= c.workers);
        assert_eq!(
            c.reactor_shards, 1,
            "one reactor shard by default: byte-compatible with the historical single-threaded reactor"
        );
    }

    #[test]
    fn reactor_shards_zero_means_per_worker_and_huge_is_rejected() {
        // Plain Config setter clamps to the cap; 0 is a legal value.
        let c = Config::default().reactor_shards(0);
        assert_eq!(c.reactor_shards, 0);
        assert!(c.validate().is_ok(), "0 = one shard per worker");
        let c = Config::default().reactor_shards(MAX_REACTOR_SHARDS + 9);
        assert_eq!(c.reactor_shards, MAX_REACTOR_SHARDS, "setter clamps");
        // The builder stores exactly what it is given and rejects the
        // overflow with a typed error; explicit 0 stays legal.
        let c = Config {
            reactor_shards: MAX_REACTOR_SHARDS + 1,
            ..Default::default()
        };
        assert_eq!(
            c.validate().err(),
            Some(ConfigError::TooManyReactorShards {
                shards: MAX_REACTOR_SHARDS + 1
            })
        );
        let cfg = RuntimeBuilder::new().reactor_shards(0).validate().unwrap();
        assert_eq!(cfg.reactor_shards, 0);
        let cfg = RuntimeBuilder::new().reactor_shards(4).validate().unwrap();
        assert_eq!(cfg.reactor_shards, 4);
    }

    #[test]
    fn setters_clamp() {
        let c = Config::default()
            .workers(0)
            .pfor_grain(0)
            .park_micros(0)
            .steal_batch_limit(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.pfor_grain, 1);
        assert_eq!(c.park_micros, 1);
        assert_eq!(c.steal_batch_limit, 1);
    }

    #[test]
    fn steal_knobs() {
        let c = Config::default().steal_batch_limit(16);
        assert_eq!(c.steal_batch_limit, 16);

        // Builder: explicit 0 rejected, valid values pass through.
        assert_eq!(
            RuntimeBuilder::new().steal_batch_limit(0).validate().err(),
            Some(ConfigError::ZeroStealBatchLimit)
        );
        let cfg = RuntimeBuilder::new()
            .steal_batch_limit(8)
            .validate()
            .unwrap();
        assert_eq!(cfg.steal_batch_limit, 8);
    }

    #[test]
    fn timer_knobs() {
        let c = Config::default();
        assert_eq!(c.timer_shards, 0);
        assert!(c.resume_batch_limit >= 1);

        let c = c
            .timer_tick(Duration::ZERO)
            .timer_shards(3)
            .resume_batch_limit(0);
        assert_eq!(c.timer_tick, Duration::from_micros(1));
        assert_eq!(c.timer_shards, 3);
        assert_eq!(c.resume_batch_limit, 1);
    }

    #[test]
    fn registry_knobs() {
        let c = Config::default();
        assert_eq!(c.registry_shards, 0);
        let c = c.registry_shards(4);
        assert_eq!(c.registry_shards, 4);

        // Builder: explicit 0 shards rejected, omitted means auto.
        assert_eq!(
            RuntimeBuilder::new().registry_shards(0).validate().err(),
            Some(ConfigError::ZeroRegistryShards)
        );
        let cfg = RuntimeBuilder::new().registry_shards(2).validate().unwrap();
        assert_eq!(cfg.registry_shards, 2);
        let cfg = RuntimeBuilder::new().validate().unwrap();
        assert_eq!(cfg.registry_shards, 0, "auto default");
    }

    #[test]
    fn robustness_knobs() {
        let c = Config::default();
        assert_eq!(c.worker_respawn_budget, 0, "fail-stop by default");
        assert_eq!(c.io_safety_timeout, Duration::from_secs(30));

        // Fluent setters clamp; builder rejects.
        let c = c.worker_respawn_budget(3).io_safety_timeout(Duration::ZERO);
        assert_eq!(c.worker_respawn_budget, 3);
        assert_eq!(c.io_safety_timeout, Duration::from_millis(1));

        assert_eq!(
            RuntimeBuilder::new()
                .io_safety_timeout(Duration::ZERO)
                .validate()
                .err(),
            Some(ConfigError::ZeroIoSafetyTimeout)
        );
        let cfg = RuntimeBuilder::new()
            .worker_respawn_budget(2)
            .io_safety_timeout(Duration::from_secs(5))
            .validate()
            .unwrap();
        assert_eq!(cfg.worker_respawn_budget, 2);
        assert_eq!(cfg.io_safety_timeout, Duration::from_secs(5));
    }

    #[test]
    fn fluent_chain() {
        let c = Config::default()
            .workers(3)
            .mode(LatencyMode::Block)
            .seed(9);
        assert_eq!(c.workers, 3);
        assert_eq!(c.mode, LatencyMode::Block);
        assert_eq!(c.seed, 9);
    }
}
