//! Request/response frames of the `pei-serve` wire protocol.
//!
//! The protocol is newline-delimited JSON: each line holds exactly one
//! frame, an object whose `type` member selects the variant (DESIGN.md
//! §12 is the normative grammar). This module owns the *shared types* —
//! clients ([`Request`] encode, [`Response`] decode) and the daemon (the
//! reverse) agree by construction because both directions live here,
//! built on the dependency-free codec in [`crate::json`].
//!
//! Recipes travel as *strings* (workload labels, policy names) rather
//! than simulator enums: this crate sits at the bottom of the workspace
//! and cannot name `Workload` or `DispatchPolicy`, and the daemon wants
//! to validate vocabulary itself so an unknown workload becomes a
//! structured `error` frame, not a decode failure.
//!
//! # Examples
//!
//! ```
//! use pei_types::wire::{Recipe, Request, Response};
//!
//! let req = Request::Submit {
//!     recipe: Recipe::new("atf", "small", "la"),
//!     trace: None,
//!     tenant: None,
//!     priority: Default::default(),
//!     deadline_ms: None,
//! };
//! let line = req.encode();
//! assert_eq!(Request::decode(&line).unwrap(), req);
//!
//! let resp = Response::Ack { job: 3 };
//! assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
//! ```

use crate::json::{Json, JsonError};

/// The default seed every harness in this workspace uses.
const DEFAULT_SEED: u64 = 0x5eed;

/// A replayable simulation recipe as it travels on the wire: the same
/// value set `pei-bench` serializes into `.petr` captures
/// (workload/size/policy/scale/paper/seed/budget), plus the
/// checked-mode flag and an optional fault plan for sanitizer tests.
///
/// Unknown members are ignored, except `shards`: it selected the
/// sharded engine, which was removed, and a submit carrying it is
/// refused by name rather than run silently on the sequential engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    /// Workload label (`atf`, `bfs`, `pr`, …), case-insensitive.
    pub workload: String,
    /// Input size (`small` | `medium` | `large`).
    pub size: String,
    /// Dispatch policy (`host` | `pim` | `la` | `bd`, or the long
    /// trace-metadata names).
    pub policy: String,
    /// Simulation effort (`quick` | `full`).
    pub scale: String,
    /// Paper-scale machine instead of the scaled default.
    pub paper: bool,
    /// Workload seed.
    pub seed: u64,
    /// Overrides the scale's PEI budget when set.
    pub budget: Option<u64>,
    /// Checked mode: sweep the invariant auditors during the run.
    pub check: bool,
    /// Deterministic fault injection: the fault plan's seed. Only
    /// meaningful together with [`fault_kinds`](Recipe::fault_kinds).
    pub fault_seed: Option<u64>,
    /// Fault kinds to arm, by their `pei-system` labels (tests only;
    /// empty in every real submission).
    pub fault_kinds: Vec<String>,
}

impl Recipe {
    /// A plain unchecked recipe at quick scale with the default seed.
    pub fn new(workload: &str, size: &str, policy: &str) -> Recipe {
        Recipe {
            workload: workload.to_owned(),
            size: size.to_owned(),
            policy: policy.to_owned(),
            scale: "quick".to_owned(),
            paper: false,
            seed: DEFAULT_SEED,
            budget: None,
            check: false,
            fault_seed: None,
            fault_kinds: Vec::new(),
        }
    }

    fn to_json(&self) -> Json {
        let mut m = vec![
            ("workload".to_owned(), Json::from(self.workload.as_str())),
            ("size".to_owned(), Json::from(self.size.as_str())),
            ("policy".to_owned(), Json::from(self.policy.as_str())),
            ("scale".to_owned(), Json::from(self.scale.as_str())),
            ("paper".to_owned(), Json::from(self.paper)),
            ("seed".to_owned(), Json::from(self.seed)),
        ];
        if let Some(b) = self.budget {
            m.push(("budget".to_owned(), Json::from(b)));
        }
        if self.check {
            m.push(("check".to_owned(), Json::from(true)));
        }
        if let Some(s) = self.fault_seed {
            m.push(("fault_seed".to_owned(), Json::from(s)));
        }
        if !self.fault_kinds.is_empty() {
            m.push((
                "fault_kinds".to_owned(),
                Json::Arr(
                    self.fault_kinds
                        .iter()
                        .map(|k| Json::from(k.as_str()))
                        .collect(),
                ),
            ));
        }
        Json::Obj(m)
    }

    fn from_json(v: &Json) -> Result<Recipe, WireError> {
        if v.get("shards").is_some() {
            return Err(bad(
                "recipe member `shards` is no longer accepted: the sharded engine was removed",
            ));
        }
        Ok(Recipe {
            workload: req_str(v, "workload")?,
            size: opt_str(v, "size")?.unwrap_or_else(|| "medium".to_owned()),
            policy: opt_str(v, "policy")?.unwrap_or_else(|| "la".to_owned()),
            scale: opt_str(v, "scale")?.unwrap_or_else(|| "quick".to_owned()),
            paper: opt_bool(v, "paper")?.unwrap_or(false),
            seed: opt_u64(v, "seed")?.unwrap_or(DEFAULT_SEED),
            budget: opt_u64(v, "budget")?,
            check: opt_bool(v, "check")?.unwrap_or(false),
            fault_seed: opt_u64(v, "fault_seed")?,
            fault_kinds: match v.get("fault_kinds") {
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        i.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| bad("`fault_kinds` items must be strings"))
                    })
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err(bad("`fault_kinds` must be an array")),
            },
        })
    }
}

/// A submission's scheduling band. Bands are strict: the daemon never
/// starts a job while a higher band has one queued; *within* a band,
/// tenants share round-robin, one job per turn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Drained before everything else (interactive probes).
    High,
    /// The default band.
    #[default]
    Normal,
    /// Background bulk work; runs only when the other bands are empty.
    Low,
}

impl Priority {
    /// The wire spelling (`high` | `normal` | `low`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Inverse of [`name`](Priority::name).
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// A client-to-daemon frame.
// The submit variant's inline `Recipe` dwarfs the other variants, but
// submits dominate real traffic and boxing would put every decode
// through an extra allocation for no measured benefit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Queue a recipe; answered by `ack`, then `progress` heartbeats,
    /// then exactly one terminal frame (`result`, `error`, or
    /// `cancelled`).
    Submit {
        /// What to run.
        recipe: Recipe,
        /// If set, also capture the run as a `.petr` event trace at
        /// this (daemon-side) path, reported back in the result frame.
        trace: Option<String>,
        /// Which tenant's fair-share queue this job joins (omitted →
        /// the `default` tenant).
        tenant: Option<String>,
        /// Scheduling band (omitted → `normal`).
        priority: Priority,
        /// Wall-clock budget in milliseconds, measured from the ack.
        /// A job past its deadline is abandoned at the next slice
        /// boundary with a terminal `deadline-exceeded` error (omitted
        /// → the daemon's `--deadline-ms` default, if any).
        deadline_ms: Option<u64>,
    },
    /// Cancel a queued or in-flight job by the id `ack` returned.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Ask for the daemon's scheduler/cache statistics.
    Stats,
    /// Drain in-flight jobs, answer `bye`, and close this session
    /// (in `--stdio` mode the daemon exits).
    Shutdown,
}

impl Request {
    /// Serializes this frame as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Request::Submit {
                recipe,
                trace,
                tenant,
                priority,
                deadline_ms,
            } => {
                let mut m = vec![
                    ("type".to_owned(), Json::from("submit")),
                    ("recipe".to_owned(), recipe.to_json()),
                ];
                if let Some(t) = trace {
                    m.push(("trace".to_owned(), Json::from(t.as_str())));
                }
                if let Some(t) = tenant {
                    m.push(("tenant".to_owned(), Json::from(t.as_str())));
                }
                if *priority != Priority::default() {
                    m.push(("priority".to_owned(), Json::from(priority.name())));
                }
                if let Some(d) = deadline_ms {
                    m.push(("deadline_ms".to_owned(), Json::from(*d)));
                }
                Json::Obj(m)
            }
            Request::Cancel { job } => Json::Obj(vec![
                ("type".to_owned(), Json::from("cancel")),
                ("job".to_owned(), Json::from(*job)),
            ]),
            Request::Stats => Json::Obj(vec![("type".to_owned(), Json::from("stats"))]),
            Request::Shutdown => Json::Obj(vec![("type".to_owned(), Json::from("shutdown"))]),
        };
        v.encode()
    }

    /// Parses one request line. Errors carry the byte offset for JSON
    /// syntax problems and a description for frame-shape problems.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        let v = Json::parse(line)?;
        match frame_type(&v)? {
            "submit" => {
                let recipe = v
                    .get("recipe")
                    .ok_or_else(|| bad("submit frame needs a `recipe` object"))?;
                Ok(Request::Submit {
                    recipe: Recipe::from_json(recipe)?,
                    trace: opt_str(&v, "trace")?,
                    tenant: opt_str(&v, "tenant")?,
                    priority: match opt_str(&v, "priority")? {
                        None => Priority::default(),
                        Some(p) => Priority::parse(&p).ok_or_else(|| {
                            bad(format!("unknown priority `{p}` (high|normal|low)"))
                        })?,
                    },
                    deadline_ms: opt_u64(&v, "deadline_ms")?,
                })
            }
            "cancel" => Ok(Request::Cancel {
                job: req_u64(&v, "job")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown request type `{other}`"))),
        }
    }
}

/// The headline metrics of a completed run, mirroring `RunResult`'s
/// scalar fields plus the full statistics report rendered to text. The
/// stats text is the byte-identity contract's unit: it must equal the
/// one-shot binary's `--stats` section for the same recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// The job this result belongs to.
    pub job: u64,
    /// Host cycles until the last workload group completed.
    pub cycles: u64,
    /// Total instructions issued by all cores.
    pub instructions: u64,
    /// Total PEIs issued.
    pub peis: u64,
    /// Fraction of PEIs dispatched to memory-side PCUs.
    pub pim_fraction: f64,
    /// Off-chip traffic in bytes, both directions.
    pub offchip_bytes: u64,
    /// Request/response link flits.
    pub offchip_flits: (u64, u64),
    /// DRAM accesses served.
    pub dram_accesses: u64,
    /// Total energy in nanojoules.
    pub energy_total_nj: f64,
    /// The full `StatsReport` rendered to text.
    pub stats: String,
    /// Daemon-side path of the captured `.petr` trace, if one was
    /// requested.
    pub trace: Option<String>,
}

/// Per-worker scheduler statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Jobs this worker has finished (any terminal state).
    pub jobs: u64,
    /// Whether the worker is executing a job right now.
    pub busy: bool,
    /// Accumulated busy wall-clock, in milliseconds (divide by daemon
    /// uptime for utilization).
    pub busy_ms: u64,
}

/// Per-tenant scheduler statistics (one entry per tenant ever seen,
/// sorted by name in the `stats` frame).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStat {
    /// The tenant's name (`default` for submissions that named none).
    pub tenant: String,
    /// Jobs this tenant has submitted (accepted, i.e. acked).
    pub submitted: u64,
    /// Jobs that reached a terminal frame (result, error, cancelled).
    pub completed: u64,
    /// Median queue wait of recent jobs, in milliseconds (submission
    /// ack → a worker claiming the job).
    pub wait_p50_ms: u64,
    /// 95th-percentile queue wait of recent jobs, in milliseconds.
    pub wait_p95_ms: u64,
}

/// A `stats` response: queue and worker state, job totals, and the
/// resident input-graph cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsFrame {
    /// Jobs queued but not yet claimed by a worker.
    pub queue_depth: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs accepted (acked) since startup. Every accepted job reaches
    /// exactly one terminal state, so after a drain
    /// `submitted == completed + failed + cancelled + deadline_exceeded
    /// + disconnect_cancelled`.
    pub submitted: u64,
    /// Jobs completed successfully since startup.
    pub completed: u64,
    /// Jobs that ended in a failure report (stall, cycle limit, check).
    pub failed: u64,
    /// Jobs cancelled by a client `cancel` frame before completing.
    pub cancelled: u64,
    /// Submissions rejected before queueing (malformed frames, unknown
    /// vocabulary, a full queue, or a draining daemon). Rejected
    /// submissions never become jobs and are outside the `submitted`
    /// partition.
    pub rejected: u64,
    /// The subset of `rejected` turned away with `kind:"queue-full"`
    /// because the queue was at `--max-queue`.
    pub queue_full: u64,
    /// Jobs abandoned at a slice boundary because their wall-clock
    /// deadline passed (terminal `kind:"deadline-exceeded"`).
    pub deadline_exceeded: u64,
    /// Jobs cancelled because their session's reader hit EOF or its
    /// writer failed (disconnect reaping).
    pub disconnect_cancelled: u64,
    /// Highest queue depth observed since startup.
    pub queue_high_water: u64,
    /// Progress heartbeats coalesced or dropped across all sessions
    /// because a writer queue was full. Ack and terminal frames are
    /// never dropped.
    pub dropped_progress: u64,
    /// Progress heartbeats coalesced or dropped on the session that
    /// answered this `stats` request (0 when the frame was not produced
    /// for a live session).
    pub session_dropped_progress: u64,
    /// Daemon uptime in milliseconds.
    pub uptime_ms: u64,
    /// One entry per worker.
    pub workers: Vec<WorkerStat>,
    /// One entry per tenant, sorted by name.
    pub tenants: Vec<TenantStat>,
    /// Entries resident in the process-wide `Arc<Graph>` input cache.
    pub graph_cache_entries: u64,
}

/// A daemon-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was queued under this job id.
    Ack {
        /// Daemon-assigned job id; all later frames reference it.
        job: u64,
    },
    /// Progress heartbeat from an in-flight job.
    Progress {
        /// The job making progress.
        job: u64,
        /// Simulated cycle the run has reached.
        cycle: u64,
    },
    /// Terminal frame of a completed job.
    Result(ResultFrame),
    /// Terminal frame of a cancelled job.
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// Simulated cycle at which the run stopped (0 if it never
        /// started).
        cycle: u64,
    },
    /// A structured error: a rejected submission, a malformed frame, or
    /// the terminal frame of a job that ended in a failure report. The
    /// daemon stays up in every case.
    Error {
        /// The job the error belongs to, if it got far enough to have
        /// one.
        job: Option<u64>,
        /// Machine-readable kind (`bad-frame`, `bad-recipe`,
        /// `unknown-job`, `queue-full`, `deadline-exceeded`,
        /// `shutting-down`, `stalled`, `cycle-limit`, `check-failed`,
        /// `worker-panic`).
        kind: String,
        /// Human-readable description (for malformed frames this
        /// includes the byte offset).
        message: String,
        /// Invariant violations, for `check-failed` outcomes.
        violations: Vec<String>,
    },
    /// Answer to a `stats` request.
    Stats(StatsFrame),
    /// The daemon is closing this session.
    Bye,
}

impl Response {
    /// Serializes this frame as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let v = match self {
            Response::Ack { job } => Json::Obj(vec![
                ("type".to_owned(), Json::from("ack")),
                ("job".to_owned(), Json::from(*job)),
            ]),
            Response::Progress { job, cycle } => Json::Obj(vec![
                ("type".to_owned(), Json::from("progress")),
                ("job".to_owned(), Json::from(*job)),
                ("cycle".to_owned(), Json::from(*cycle)),
            ]),
            Response::Result(r) => {
                let mut m = vec![
                    ("type".to_owned(), Json::from("result")),
                    ("job".to_owned(), Json::from(r.job)),
                    ("cycles".to_owned(), Json::from(r.cycles)),
                    ("instructions".to_owned(), Json::from(r.instructions)),
                    ("peis".to_owned(), Json::from(r.peis)),
                    ("pim_fraction".to_owned(), Json::from(r.pim_fraction)),
                    ("offchip_bytes".to_owned(), Json::from(r.offchip_bytes)),
                    (
                        "offchip_flits".to_owned(),
                        Json::Arr(vec![
                            Json::from(r.offchip_flits.0),
                            Json::from(r.offchip_flits.1),
                        ]),
                    ),
                    ("dram_accesses".to_owned(), Json::from(r.dram_accesses)),
                    ("energy_total_nj".to_owned(), Json::from(r.energy_total_nj)),
                    ("stats".to_owned(), Json::from(r.stats.as_str())),
                ];
                if let Some(t) = &r.trace {
                    m.push(("trace".to_owned(), Json::from(t.as_str())));
                }
                Json::Obj(m)
            }
            Response::Cancelled { job, cycle } => Json::Obj(vec![
                ("type".to_owned(), Json::from("cancelled")),
                ("job".to_owned(), Json::from(*job)),
                ("cycle".to_owned(), Json::from(*cycle)),
            ]),
            Response::Error {
                job,
                kind,
                message,
                violations,
            } => {
                let mut m = vec![("type".to_owned(), Json::from("error"))];
                if let Some(j) = job {
                    m.push(("job".to_owned(), Json::from(*j)));
                }
                m.push(("kind".to_owned(), Json::from(kind.as_str())));
                m.push(("message".to_owned(), Json::from(message.as_str())));
                if !violations.is_empty() {
                    m.push((
                        "violations".to_owned(),
                        Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
                    ));
                }
                Json::Obj(m)
            }
            Response::Stats(s) => Json::Obj(vec![
                ("type".to_owned(), Json::from("stats")),
                ("queue_depth".to_owned(), Json::from(s.queue_depth)),
                ("running".to_owned(), Json::from(s.running)),
                ("submitted".to_owned(), Json::from(s.submitted)),
                ("completed".to_owned(), Json::from(s.completed)),
                ("failed".to_owned(), Json::from(s.failed)),
                ("cancelled".to_owned(), Json::from(s.cancelled)),
                ("rejected".to_owned(), Json::from(s.rejected)),
                ("queue_full".to_owned(), Json::from(s.queue_full)),
                (
                    "deadline_exceeded".to_owned(),
                    Json::from(s.deadline_exceeded),
                ),
                (
                    "disconnect_cancelled".to_owned(),
                    Json::from(s.disconnect_cancelled),
                ),
                (
                    "queue_high_water".to_owned(),
                    Json::from(s.queue_high_water),
                ),
                (
                    "dropped_progress".to_owned(),
                    Json::from(s.dropped_progress),
                ),
                (
                    "session_dropped_progress".to_owned(),
                    Json::from(s.session_dropped_progress),
                ),
                ("uptime_ms".to_owned(), Json::from(s.uptime_ms)),
                (
                    "workers".to_owned(),
                    Json::Arr(
                        s.workers
                            .iter()
                            .map(|w| {
                                Json::Obj(vec![
                                    ("jobs".to_owned(), Json::from(w.jobs)),
                                    ("busy".to_owned(), Json::from(w.busy)),
                                    ("busy_ms".to_owned(), Json::from(w.busy_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "tenants".to_owned(),
                    Json::Arr(
                        s.tenants
                            .iter()
                            .map(|t| {
                                Json::Obj(vec![
                                    ("tenant".to_owned(), Json::from(t.tenant.as_str())),
                                    ("submitted".to_owned(), Json::from(t.submitted)),
                                    ("completed".to_owned(), Json::from(t.completed)),
                                    ("wait_p50_ms".to_owned(), Json::from(t.wait_p50_ms)),
                                    ("wait_p95_ms".to_owned(), Json::from(t.wait_p95_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "graph_cache_entries".to_owned(),
                    Json::from(s.graph_cache_entries),
                ),
            ]),
            Response::Bye => Json::Obj(vec![("type".to_owned(), Json::from("bye"))]),
        };
        v.encode()
    }

    /// Parses one response line.
    pub fn decode(line: &str) -> Result<Response, WireError> {
        let v = Json::parse(line)?;
        match frame_type(&v)? {
            "ack" => Ok(Response::Ack {
                job: req_u64(&v, "job")?,
            }),
            "progress" => Ok(Response::Progress {
                job: req_u64(&v, "job")?,
                cycle: req_u64(&v, "cycle")?,
            }),
            "result" => {
                let flits = v
                    .get("offchip_flits")
                    .and_then(Json::as_arr)
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| bad("result frame needs a 2-element `offchip_flits`"))?;
                Ok(Response::Result(ResultFrame {
                    job: req_u64(&v, "job")?,
                    cycles: req_u64(&v, "cycles")?,
                    instructions: req_u64(&v, "instructions")?,
                    peis: req_u64(&v, "peis")?,
                    pim_fraction: req_f64(&v, "pim_fraction")?,
                    offchip_bytes: req_u64(&v, "offchip_bytes")?,
                    offchip_flits: (
                        flits[0].as_u64().ok_or_else(|| bad("bad flit count"))?,
                        flits[1].as_u64().ok_or_else(|| bad("bad flit count"))?,
                    ),
                    dram_accesses: req_u64(&v, "dram_accesses")?,
                    energy_total_nj: req_f64(&v, "energy_total_nj")?,
                    stats: req_str(&v, "stats")?,
                    trace: opt_str(&v, "trace")?,
                }))
            }
            "cancelled" => Ok(Response::Cancelled {
                job: req_u64(&v, "job")?,
                cycle: req_u64(&v, "cycle")?,
            }),
            "error" => Ok(Response::Error {
                job: opt_u64(&v, "job")?,
                kind: req_str(&v, "kind")?,
                message: req_str(&v, "message")?,
                violations: match v.get("violations") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|i| {
                            i.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| bad("`violations` items must be strings"))
                        })
                        .collect::<Result<_, _>>()?,
                    Some(_) => return Err(bad("`violations` must be an array")),
                },
            }),
            "stats" => {
                let workers = match v.get("workers") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|w| {
                            Ok(WorkerStat {
                                jobs: req_u64(w, "jobs")?,
                                busy: req_bool(w, "busy")?,
                                busy_ms: req_u64(w, "busy_ms")?,
                            })
                        })
                        .collect::<Result<_, WireError>>()?,
                    Some(_) => return Err(bad("`workers` must be an array")),
                };
                let tenants = match v.get("tenants") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|t| {
                            Ok(TenantStat {
                                tenant: req_str(t, "tenant")?,
                                submitted: req_u64(t, "submitted")?,
                                completed: req_u64(t, "completed")?,
                                wait_p50_ms: req_u64(t, "wait_p50_ms")?,
                                wait_p95_ms: req_u64(t, "wait_p95_ms")?,
                            })
                        })
                        .collect::<Result<_, WireError>>()?,
                    Some(_) => return Err(bad("`tenants` must be an array")),
                };
                Ok(Response::Stats(StatsFrame {
                    queue_depth: req_u64(&v, "queue_depth")?,
                    running: req_u64(&v, "running")?,
                    // Overload counters default to 0 so frames from
                    // daemons predating them still decode.
                    submitted: opt_u64(&v, "submitted")?.unwrap_or(0),
                    completed: req_u64(&v, "completed")?,
                    failed: req_u64(&v, "failed")?,
                    cancelled: req_u64(&v, "cancelled")?,
                    rejected: req_u64(&v, "rejected")?,
                    queue_full: opt_u64(&v, "queue_full")?.unwrap_or(0),
                    deadline_exceeded: opt_u64(&v, "deadline_exceeded")?.unwrap_or(0),
                    disconnect_cancelled: opt_u64(&v, "disconnect_cancelled")?.unwrap_or(0),
                    queue_high_water: opt_u64(&v, "queue_high_water")?.unwrap_or(0),
                    dropped_progress: opt_u64(&v, "dropped_progress")?.unwrap_or(0),
                    session_dropped_progress: opt_u64(&v, "session_dropped_progress")?.unwrap_or(0),
                    uptime_ms: req_u64(&v, "uptime_ms")?,
                    workers,
                    tenants,
                    graph_cache_entries: req_u64(&v, "graph_cache_entries")?,
                }))
            }
            "bye" => Ok(Response::Bye),
            other => Err(bad(format!("unknown response type `{other}`"))),
        }
    }
}

/// A frame decode failure: either malformed JSON (with the byte offset)
/// or a well-formed object of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The JSON does not describe a known frame.
    Frame(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Frame(what) => write!(f, "bad frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError::Json(e)
    }
}

fn bad(what: impl Into<String>) -> WireError {
    WireError::Frame(what.into())
}

fn frame_type(v: &Json) -> Result<&str, WireError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("frame must be a JSON object"));
    }
    v.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("frame needs a string `type` member"))
}

fn req_str(v: &Json, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad(format!("frame needs a string `{key}`")))
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| bad(format!("`{key}` must be a string"))),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("frame needs an unsigned integer `{key}`")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be an unsigned integer"))),
    }
}

fn req_f64(v: &Json, key: &str) -> Result<f64, WireError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("frame needs a number `{key}`")))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, WireError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| bad(format!("frame needs a boolean `{key}`")))
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a boolean"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_recipe() -> Recipe {
        Recipe {
            workload: "hj".into(),
            size: "large".into(),
            policy: "bd".into(),
            scale: "full".into(),
            paper: true,
            seed: u64::MAX - 5,
            budget: Some(1234),
            check: true,
            fault_seed: Some(9),
            fault_kinds: vec!["wedge-vault".into()],
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit {
                recipe: full_recipe(),
                trace: Some("/tmp/x.petr".into()),
                tenant: Some("team-a".into()),
                priority: Priority::High,
                deadline_ms: Some(30_000),
            },
            Request::Submit {
                recipe: Recipe::new("atf", "small", "host"),
                trace: None,
                tenant: None,
                priority: Priority::Normal,
                deadline_ms: None,
            },
            Request::Submit {
                recipe: Recipe::new("pr", "medium", "la"),
                trace: None,
                tenant: Some("bulk".into()),
                priority: Priority::Low,
                deadline_ms: Some(1),
            },
            Request::Cancel { job: 17 },
            Request::Stats,
            Request::Shutdown,
        ] {
            let line = req.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Request::decode(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Ack { job: 1 },
            Response::Progress { job: 1, cycle: 99 },
            Response::Result(ResultFrame {
                job: 2,
                cycles: 123456,
                instructions: 789,
                peis: 40000,
                pim_fraction: 0.1234567,
                offchip_bytes: 1 << 40,
                offchip_flits: (5, 6),
                dram_accesses: 7,
                energy_total_nj: 1.5e9,
                stats: "a.b  1\nc.d  2\n".into(),
                trace: Some("t.petr".into()),
            }),
            Response::Cancelled { job: 3, cycle: 50 },
            Response::Error {
                job: Some(4),
                kind: "check-failed".into(),
                message: "MESI violation".into(),
                violations: vec!["l3.bank0: double owner".into()],
            },
            Response::Error {
                job: None,
                kind: "bad-frame".into(),
                message: "bad JSON at byte 3: expected `:`".into(),
                violations: vec![],
            },
            Response::Stats(StatsFrame {
                queue_depth: 2,
                running: 1,
                submitted: 15,
                completed: 10,
                failed: 1,
                cancelled: 1,
                rejected: 3,
                queue_full: 2,
                deadline_exceeded: 1,
                disconnect_cancelled: 2,
                queue_high_water: 7,
                dropped_progress: 12,
                session_dropped_progress: 5,
                uptime_ms: 5000,
                workers: vec![
                    WorkerStat {
                        jobs: 6,
                        busy: true,
                        busy_ms: 4000,
                    },
                    WorkerStat {
                        jobs: 5,
                        busy: false,
                        busy_ms: 3500,
                    },
                ],
                tenants: vec![
                    TenantStat {
                        tenant: "default".into(),
                        submitted: 9,
                        completed: 8,
                        wait_p50_ms: 3,
                        wait_p95_ms: 40,
                    },
                    TenantStat {
                        tenant: "team-a".into(),
                        submitted: 4,
                        completed: 4,
                        wait_p50_ms: 0,
                        wait_p95_ms: 2,
                    },
                ],
                graph_cache_entries: 4,
            }),
            Response::Bye,
        ] {
            let line = resp.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn stats_text_survives_the_wire_byte_for_byte() {
        // The byte-identity contract rides on this: a StatsReport
        // rendered to text, escaped into a frame, and decoded back must
        // be unchanged.
        let stats = "cpu.0.instr          1024\nvault.10.reads   3\n\u{7}odd\n";
        let frame = Response::Result(ResultFrame {
            job: 1,
            cycles: 1,
            instructions: 1,
            peis: 0,
            pim_fraction: 0.0,
            offchip_bytes: 0,
            offchip_flits: (0, 0),
            dram_accesses: 0,
            energy_total_nj: 0.0,
            stats: stats.into(),
            trace: None,
        });
        match Response::decode(&frame.encode()).unwrap() {
            Response::Result(r) => assert_eq!(r.stats, stats),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn recipe_defaults_fill_in() {
        let r = Request::decode(r#"{"type":"submit","recipe":{"workload":"pr"}}"#).unwrap();
        match r {
            Request::Submit {
                recipe,
                trace,
                tenant,
                priority,
                deadline_ms,
            } => {
                assert_eq!(recipe.size, "medium");
                assert_eq!(recipe.policy, "la");
                assert_eq!(recipe.scale, "quick");
                assert_eq!(recipe.seed, 0x5eed);
                assert!(!recipe.check && recipe.budget.is_none());
                assert!(trace.is_none());
                assert!(tenant.is_none());
                assert_eq!(priority, Priority::Normal);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn unknown_priorities_are_rejected_and_known_ones_parse() {
        let err =
            Request::decode(r#"{"type":"submit","recipe":{"workload":"pr"},"priority":"urgent"}"#)
                .unwrap_err();
        assert!(err.to_string().contains("priority"), "{err}");
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        let r = Request::decode(
            r#"{"type":"submit","recipe":{"workload":"pr"},"tenant":"a","priority":"low"}"#,
        )
        .unwrap();
        match r {
            Request::Submit {
                tenant, priority, ..
            } => {
                assert_eq!(tenant.as_deref(), Some("a"));
                assert_eq!(priority, Priority::Low);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn stats_frames_without_overload_counters_still_decode() {
        // Frames from a daemon predating the overload counters decode
        // with the new fields zeroed.
        let line = concat!(
            r#"{"type":"stats","queue_depth":3,"running":1,"completed":4,"#,
            r#""failed":0,"cancelled":0,"rejected":2,"uptime_ms":10,"#,
            r#""graph_cache_entries":0}"#,
        );
        match Response::decode(line).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.queue_depth, 3);
                assert_eq!(s.submitted, 0);
                assert_eq!(s.queue_full, 0);
                assert_eq!(s.deadline_exceeded, 0);
                assert_eq!(s.disconnect_cancelled, 0);
                assert_eq!(s.queue_high_water, 0);
                assert_eq!(s.dropped_progress, 0);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn stats_frames_from_daemons_with_a_snapshot_cache_still_decode() {
        // A `stats` line from a daemon that still ran a warm-fork
        // snapshot cache: its extra counters object is ignored, and
        // re-encoding drops exactly that member.
        let retired = concat!(
            r#","fork_cache":{"entries":0,"bytes":0,"hits":0,"misses":1,"#,
            r#""bypasses":1,"ineligible":0,"evictions":0,"evicted_bytes":0,"#,
            r#""capacity_bytes":268435456}"#,
        );
        let current = concat!(
            r#"{"type":"stats","queue_depth":0,"running":0,"submitted":2,"#,
            r#""completed":2,"failed":0,"cancelled":0,"rejected":0,"queue_full":0,"#,
            r#""deadline_exceeded":0,"disconnect_cancelled":0,"queue_high_water":1,"#,
            r#""dropped_progress":0,"session_dropped_progress":0,"uptime_ms":29,"#,
            r#""workers":[{"jobs":2,"busy":false,"busy_ms":26}],"#,
            r#""tenants":[{"tenant":"ci","submitted":2,"completed":2,"#,
            r#""wait_p50_ms":0,"wait_p95_ms":0}],"graph_cache_entries":1}"#,
        );
        let older = format!("{}{retired}}}", current.strip_suffix('}').unwrap());
        let decoded = Response::decode(&older).unwrap();
        assert_eq!(
            decoded,
            Response::Stats(StatsFrame {
                submitted: 2,
                completed: 2,
                queue_high_water: 1,
                uptime_ms: 29,
                workers: vec![WorkerStat {
                    jobs: 2,
                    busy: false,
                    busy_ms: 26,
                }],
                tenants: vec![TenantStat {
                    tenant: "ci".into(),
                    submitted: 2,
                    completed: 2,
                    wait_p50_ms: 0,
                    wait_p95_ms: 0,
                }],
                graph_cache_entries: 1,
                ..StatsFrame::default()
            })
        );
        assert_eq!(decoded.encode(), current);
        assert_eq!(Response::decode(current).unwrap(), decoded);
    }

    #[test]
    fn malformed_frames_are_described() {
        let err = Request::decode("{\"type\"").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        let err = Request::decode(r#"{"type":"warp"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown request type"), "{err}");
        let err = Request::decode(r#"{"type":"cancel"}"#).unwrap_err();
        assert!(err.to_string().contains("`job`"), "{err}");
        let err = Request::decode("[1,2]").unwrap_err();
        assert!(err.to_string().contains("object"), "{err}");
        let err = Response::decode(r#"{"type":"result","job":1}"#).unwrap_err();
        assert!(err.to_string().contains("offchip_flits"), "{err}");
        // Unknown recipe members are ignored, but not `shards`: a submit
        // asking for the removed sharded engine must not run on another.
        let err = Request::decode(r#"{"type":"submit","recipe":{"workload":"pr","shards":2}}"#)
            .unwrap_err();
        assert!(err.to_string().contains("`shards`"), "{err}");
    }

    #[test]
    fn float_fields_round_trip_exactly() {
        // Rust's f64 Display prints the shortest string that parses
        // back to the same bits; the wire must preserve that.
        let x = 1.0_f64 / 3.0; // needs all 17 significant digits to print
        let v = Json::parse(&Json::F64(x).encode()).unwrap();
        assert_eq!(v.as_f64().unwrap().to_bits(), x.to_bits());
    }
}
