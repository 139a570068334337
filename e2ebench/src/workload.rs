//! The two workloads, driven through `ServerSession::run`, and the
//! metrics each run reports.
//!
//! A run is a sequence of rounds until the requested time is spent. Each
//! round sets the store up afresh, warms the new server with a few
//! programs, runs a fixed number of measured programs, checks that the
//! store holds exactly the acknowledged puts, and makes a reopen
//! durability check. Every round therefore does the same work on a store
//! of the same size, however fast the host runs, and a run reports medians
//! over its rounds: `setup_s` is the median set-up, and the gated rates
//! and latencies are medians of per-round figures. The gated figures are
//! scaled to a reference host speed by a calibration kernel timed before
//! every program and load step (see [`crate::calib`]); the report prints
//! them as measured too. A traced run alternates untraced and traced
//! rounds so that its per-layer times and its tracing overhead come from
//! one run.

use crate::calib;
use crate::gen::{Oracle, ReadKind, Rng, Store, WriteProg, BOUNDS, HANDLES};
use crate::io::{IoSpan, IoStats, IoTotals, TimingVfs};
use crate::spans::{self, Span, SpanLog};
use crate::stats::{self, Dist};
use dbpl_core::Database;
use dbpl_lang::{check_program, parse_program, EngineState, RtValue, Server, ServerSession};
use dbpl_obs::StatsSnapshot;
use dbpl_persist::ReplicatingStore;
use dbpl_relation::GenRelation;
use dbpl_types::Type;
use dbpl_values::{Heap, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `get` over the hierarchy; nothing commits.
    GetHierarchy,
    /// Closed-loop commits of one put and one extern each.
    PutExtern,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::GetHierarchy, Workload::PutExtern];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GetHierarchy => "get_hierarchy",
            Workload::PutExtern => "put_extern",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that shapes one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds the store and every program stream.
    pub seed: u64,
    /// Time to spend on rounds; the round under way when it runs out is
    /// finished.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics from an untraced one.
    pub trace: bool,
    /// Rows each round's set-up loads.
    pub rows: usize,
    /// Measured programs per round, over all sessions.
    pub round_programs: usize,
    /// Programs one session runs on each round's fresh server before the
    /// measured ones, to fill caches.
    pub round_warmup: usize,
    /// Programs in the probe of a traced run: half reads, taking each
    /// read kind in turn, then half commits.
    pub probe_programs: usize,
    /// Where stores and traces are written.
    pub work_dir: PathBuf,
}

impl Params {
    /// The full-size run: 4,000 rows, and rounds of 250 reads or 100
    /// commits, under two seconds each on a 2-core host.
    pub fn full(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: PathBuf,
    ) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            rows: 4_000,
            round_programs: match workload {
                Workload::GetHierarchy => 250,
                Workload::PutExtern => 100,
            },
            round_warmup: 10,
            probe_programs: 24,
            work_dir,
        }
    }

    /// A run small enough for the self-test.
    pub fn smoke(workload: Workload, seed: u64, trace: bool, work_dir: PathBuf) -> Params {
        Params {
            rows: 400,
            seconds: 0.3,
            round_programs: 40,
            round_warmup: 5,
            probe_programs: 12,
            ..Params::full(workload, seed, 0.0, trace, work_dir)
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Programs attempted, the reopen checks included.
    pub attempted: u64,
    /// Programs that failed, were refused or printed a wrong result,
    /// plus handles the reopen checks found wrong.
    pub failed: u64,
    /// What went wrong, first few of each kind.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The human-readable report: provenance, sample counts, and every
    /// metric by name, including those that do not apply.
    pub report: Vec<String>,
    /// Where the traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// The reported metric called `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

/// A program and how to judge it.
enum Prog {
    Read(ReadKind),
    Write(WriteProg),
}

impl Prog {
    fn text(&self) -> String {
        match self {
            Prog::Read(k) => k.text(),
            Prog::Write(w) => w.text.clone(),
        }
    }
}

/// The program stream of one session in one round: seeded by the run's
/// seed and the session's index, so a run's inputs depend on nothing
/// else, and every round runs the same programs.
struct Stream {
    rng: Rng,
    kind: StreamKind,
    session: usize,
    sessions: usize,
    issued: i64,
    /// Where the hierarchy rotation starts.
    first: usize,
}

#[derive(Clone, Copy)]
enum StreamKind {
    /// Counts over the four bounds and the Empno sum, in turn.
    Hierarchy,
    /// Employee put + extern to one of this session's handles.
    EmployeeWrites,
}

impl Stream {
    fn new(seed: u64, kind: StreamKind, session: usize, sessions: usize) -> Stream {
        let mut rng = Rng::new(seed, 100 + session as u64);
        let first = rng.below(BOUNDS.len() as u64 + 1) as usize;
        Stream {
            rng,
            kind,
            session,
            sessions,
            issued: 0,
            first,
        }
    }

    fn next(&mut self) -> Prog {
        self.issued += 1;
        // Unique across the round's writers: session s writes s+1, s+1+n, ...
        let seq = (self.issued - 1) * self.sessions as i64 + self.session as i64 + 1;
        match self.kind {
            StreamKind::Hierarchy => {
                match (self.first + self.issued as usize) % (BOUNDS.len() + 1) {
                    i if i < BOUNDS.len() => Prog::Read(ReadKind::Count(i)),
                    _ => Prog::Read(ReadKind::EmpnoSum),
                }
            }
            StreamKind::EmployeeWrites => {
                // Handles are split between sessions, so each handle has
                // one writer and a well-defined last acknowledged value.
                let own = (HANDLES - self.session).div_ceil(self.sessions) as u64;
                let h = self.session + self.sessions * self.rng.below(own) as usize;
                Prog::Write(WriteProg::new(seq, self.session as i64 + 1, h))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Registry windows
// ---------------------------------------------------------------------------

/// A stretch of a run: its length, the engine registry's deltas over its
/// pieces, and I/O totals.
#[derive(Debug, Clone, Default)]
struct Window {
    secs: f64,
    /// One `StatsSnapshot::delta_since` per piece of the window.
    reg: Vec<StatsSnapshot>,
    io: IoTotals,
}

impl Window {
    fn add(&mut self, o: Window) {
        self.secs += o.secs;
        self.reg.extend(o.reg);
        self.io = self.io.plus(&o.io);
    }

    /// The sum of the counters `names` over the window.
    fn counter(&self, names: &[&str]) -> f64 {
        let sum: u64 = self
            .reg
            .iter()
            .flat_map(|d| names.iter().map(move |n| d.counter(n)))
            .sum();
        sum as f64
    }

    /// Observations of histogram `name` over the window, and their sum.
    fn histogram(&self, name: &str) -> (f64, f64) {
        self.reg
            .iter()
            .filter_map(|d| d.histogram(name))
            .fold((0.0, 0.0), |(n, sum), h| {
                (n + h.count as f64, sum + h.sum_us as f64)
            })
    }
}

/// A point at which a window starts or ends.
struct Mark {
    at: Instant,
    reg: StatsSnapshot,
    io: IoTotals,
}

impl Mark {
    fn now(io: &IoStats) -> Mark {
        Mark {
            at: Instant::now(),
            reg: dbpl_obs::global().snapshot(),
            io: io.totals(),
        }
    }

    fn window_to(&self, end: &Mark) -> Window {
        Window {
            secs: end.at.duration_since(self.at).as_secs_f64(),
            reg: vec![end.reg.delta_since(&self.reg)],
            io: end.io.since(&self.io),
        }
    }
}

// ---------------------------------------------------------------------------
// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// One finished program.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The round it ran in.
    round: usize,
    /// Ran in a traced round.
    traced: bool,
    /// Ran during its round's warm-up.
    warm: bool,
    write: bool,
    ok: bool,
    /// From the `run` call to the reply.
    latency_ns: u64,
    /// How late the generator issued it: after the previous program's
    /// reply, checks and replays.
    lag_ns: u64,
    /// Encoded bytes of the value it externed, if it committed one.
    encoded: u64,
    /// The calibration kernel's time on this session's core just before
    /// the program ran.
    kernel_ns: u64,
}

impl Sample {
    /// Its latency in ms at the reference host speed; a failed program
    /// counts as missing every latency limit.
    fn scaled_ms(&self) -> f64 {
        if self.ok {
            calib::scale(self.latency_ns, self.kernel_ns) / MS
        } else {
            f64::INFINITY
        }
    }
}

/// What one session hands back from one round.
struct SessionOut {
    samples: Vec<Sample>,
    log: SpanLog,
    /// Handle -> last acknowledged `Seq`.
    acked: BTreeMap<usize, i64>,
    /// Employee numbers of acknowledged Employee puts.
    new_empnos: Vec<i64>,
    problems: Vec<String>,
}

impl SessionOut {
    /// `id` must be unique in the run: it keeps span ids apart.
    fn new(id: u32, origin: Instant) -> SessionOut {
        SessionOut {
            samples: Vec::new(),
            log: SpanLog::new(id, origin),
            acked: BTreeMap::new(),
            new_empnos: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Run `prog` and judge its output. When `traced`, the snapshot it
    /// ran against is kept for [`SessionOut::trace`].
    fn run_one(
        &mut self,
        sess: &mut ServerSession,
        prog: &Prog,
        oracle: &Oracle,
        traced: bool,
    ) -> Ran {
        let text = prog.text();
        let snap = traced.then(|| sess.snapshot());
        let t0 = Instant::now();
        let res = sess.run(&text);
        let done = Instant::now();
        let ok = match (&res, prog) {
            (Ok(out), Prog::Read(kind)) => oracle.check(*kind, out),
            (Ok(out), Prog::Write(_)) => out.is_empty(),
            (Err(_), _) => false,
        };
        let mut encoded = 0;
        if let Prog::Write(w) = prog {
            encoded = ReplicatingStore::encode_unit(&w.extern_dynamic(), &Heap::new())
                .map_or(0, |b| b.len() as u64);
            if ok {
                self.acked.insert(w.handle, w.seq);
                self.new_empnos.push(w.empno);
            }
        }
        if !ok && self.problems.len() < 5 {
            self.problems.push(match res {
                Ok(out) => format!("wrong output for `{text}`: {out:?}"),
                Err(e) => format!("`{text}` failed: {e}"),
            });
        }
        Ran {
            ok,
            encoded,
            t0,
            done,
            snap,
        }
    }

    /// Record a root span for a traced run and replay its layer calls
    /// beneath it, on the snapshot it ran against.
    fn trace(&mut self, prog: &Prog, ran: &Ran) {
        let Some(snap) = &ran.snap else { return };
        let name = if matches!(prog, Prog::Write(_)) {
            "program.write"
        } else {
            "program.read"
        };
        let run_ns = ran.done.duration_since(ran.t0).as_nanos() as u64;
        let root = self.log.record(0, name, ran.t0, run_ns);
        if let Err(e) = replay(&mut self.log, root, prog, &prog.text(), &snap.db) {
            self.problems.push(e);
        }
    }
}

/// One program's run, as [`SessionOut::run_one`] saw it.
struct Ran {
    ok: bool,
    /// Encoded bytes of the value it externed, if it is a commit.
    encoded: u64,
    t0: Instant,
    done: Instant,
    /// The snapshot it ran against, kept when the run is traced.
    snap: Option<Arc<EngineState>>,
}

/// Time each layer call `prog` makes, on the snapshot it ran against, as
/// children of `root`.
fn replay(
    log: &mut SpanLog,
    root: u64,
    prog: &Prog,
    text: &str,
    db: &Database,
) -> Result<(), String> {
    let ast = log
        .time(root, "parse", || parse_program(text))
        .map_err(|e| format!("replayed parse of `{text}`: {e}"))?;
    log.time(root, "check", || check_program(&ast, db.env()))
        .map_err(|e| format!("replayed check of `{text}`: {e}"))?;
    match prog {
        Prog::Read(kind) => {
            let extents: Vec<Vec<Value>> = kind
                .bounds()
                .iter()
                .map(|b| {
                    let bound = Type::named(*b);
                    let pkgs = log.time(root, "get", || db.get(&bound));
                    // The values the program's join receives: opened
                    // packages, materialised the way eval does it.
                    pkgs.iter()
                        .map(|p| RtValue::from_value(p.open()).to_value(0))
                        .collect::<Result<_, _>>()
                        .expect("stored values convert back")
                })
                .collect();
            if let [emp, dept] = &extents[..] {
                let (emp, dept) = (emp.clone(), dept.clone());
                log.time(root, "join", move || {
                    GenRelation::from_values(emp)
                        .natural_join(&GenRelation::from_values(dept))
                        .len()
                });
            }
        }
        Prog::Write(w) => {
            let (ty, value) = w.put_dynamic();
            let copy = log
                .time(root, "clone_put", || {
                    let mut copy = db.clone();
                    copy.put(ty, value).map(|_| copy).map_err(|e| e.to_string())
                })
                .map_err(|e| format!("replayed put: {e}"))?;
            drop(copy);
            let d = w.extern_dynamic();
            log.time(root, "encode", || {
                ReplicatingStore::encode_unit(&d, &Heap::new())
            })
            .map_err(|e| format!("replayed encode: {e}"))?;
        }
    }
    Ok(())
}

/// Where a program ran.
#[derive(Clone, Copy)]
struct Phase {
    round: usize,
    traced: bool,
    warm: bool,
}

/// Run programs from `stream` while `tickets` is below `limit`. Each
/// program takes a ticket, so the sessions sharing `tickets` run `limit`
/// programs between them.
fn closed_loop(
    sess: &mut ServerSession,
    stream: &mut Stream,
    out: &mut SessionOut,
    oracle: &Oracle,
    tickets: &AtomicUsize,
    limit: usize,
    phase: Phase,
) {
    let mut kernel_ns = calib::kernel_ns();
    let mut ready = Instant::now();
    while tickets.fetch_add(1, Relaxed) < limit {
        let prog = stream.next();
        let ran = out.run_one(sess, &prog, oracle, phase.traced);
        out.samples.push(Sample {
            round: phase.round,
            traced: phase.traced,
            warm: phase.warm,
            write: matches!(prog, Prog::Write(_)),
            ok: ran.ok,
            latency_ns: ran.done.duration_since(ran.t0).as_nanos() as u64,
            lag_ns: ran.t0.saturating_duration_since(ready).as_nanos() as u64,
            encoded: ran.encoded,
            kernel_ns,
        });
        out.trace(&prog, &ran);
        kernel_ns = calib::kernel_ns();
        ready = Instant::now();
    }
}

/// Closed-loop sessions. The binary runs on one core
/// ([`stats::pin_to_one_core`]), where a second session would only take
/// turns with the first; on the 2-core host the benchmark was tuned on,
/// even two sessions plus the applier on both cores measured the
/// scheduler rather than the engine. At most [`HANDLES`], since
/// `put_extern` gives each session handles of its own.
const SESSIONS: usize = 1;

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Loaded {
    server: Server,
    io: Arc<IoStats>,
    dir: PathBuf,
}

/// Open a store in a fresh directory and load it through `run`. Returns
/// the set-up time in seconds as measured and at the reference speed: the
/// open and each load program are scaled by the kernel timed just before.
fn set_up(store: &Store, dir: PathBuf, origin: Instant) -> Result<(Loaded, f64, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let vfs = TimingVfs::new(origin);
    let io = vfs.stats();
    // (ns, kernel ns) of each step.
    let mut steps = Vec::new();
    let kernel_ns = calib::kernel_ns();
    let t0 = Instant::now();
    let server = Server::open_with(Arc::new(vfs), &dir).map_err(|e| format!("open: {e}"))?;
    steps.push((t0.elapsed().as_nanos() as u64, kernel_ns));
    {
        let mut sess = server.session();
        for p in store.load_programs() {
            let kernel_ns = calib::kernel_ns();
            let t0 = Instant::now();
            let out = sess.run(&p).map_err(|e| format!("bulk load failed: {e}"))?;
            steps.push((t0.elapsed().as_nanos() as u64, kernel_ns));
            if !out.is_empty() {
                return Err(format!("bulk load printed {out:?}"));
            }
        }
    }
    let raw = steps.iter().map(|s| s.0).sum::<u64>() as f64 / 1e9;
    let scaled = steps
        .iter()
        .map(|&(ns, k)| calib::scale(ns, k))
        .sum::<f64>()
        / 1e9;
    Ok((Loaded { server, io, dir }, raw, scaled))
}

/// Warm the round's fresh server from one session, then run the round's
/// measured programs from every session. Returns what each session saw
/// and the registry and I/O window of the measured part.
fn run_round(
    p: &Params,
    loaded: &Loaded,
    oracle: &Oracle,
    phase: Phase,
    origin: Instant,
) -> (Vec<SessionOut>, Window) {
    let sessions = SESSIONS;
    let kind = match p.workload {
        Workload::GetHierarchy => StreamKind::Hierarchy,
        Workload::PutExtern => StreamKind::EmployeeWrites,
    };
    let mut streams: Vec<Stream> = (0..sessions)
        .map(|s| Stream::new(p.seed, kind, s, sessions))
        .collect();
    let mut outs: Vec<SessionOut> = (0..sessions)
        .map(|s| SessionOut::new((phase.round * sessions + s) as u32, origin))
        .collect();
    let warm = Phase {
        traced: false,
        warm: true,
        ..phase
    };
    closed_loop(
        &mut loaded.server.session(),
        &mut streams[0],
        &mut outs[0],
        oracle,
        &AtomicUsize::new(0),
        p.round_warmup,
        warm,
    );
    let tickets = AtomicUsize::new(0);
    loaded.io.set_tracing(phase.traced);
    let before = Mark::now(&loaded.io);
    std::thread::scope(|scope| {
        for (stream, out) in streams.iter_mut().zip(outs.iter_mut()) {
            let (server, tickets) = (&loaded.server, &tickets);
            scope.spawn(move || {
                let mut sess = server.session();
                closed_loop(
                    &mut sess,
                    stream,
                    out,
                    oracle,
                    tickets,
                    p.round_programs,
                    phase,
                )
            });
        }
    });
    let window = before.window_to(&Mark::now(&loaded.io));
    loaded.io.set_tracing(false);
    (outs, window)
}

/// Whether the store holds exactly the generated rows plus `added`
/// acknowledged Employee puts.
fn check_rows(loaded: &Loaded, store: &Store, added: usize) -> Option<String> {
    let state = loaded.server.session().snapshot();
    let want = store.count("Employee") + added;
    let got = state.db.get(&Type::named("Employee")).len();
    (got != want).then(|| {
        format!(
            "epoch {}: get[Employee] holds {got} rows, expected {want}",
            state.epoch
        )
    })
}

/// Shut down, reopen the same directory with a fresh server, and intern
/// every handle. Returns the handles whose `Seq` is not the last value
/// acknowledged for them.
fn reopen_check(loaded: Loaded, expected: &[i64]) -> Result<usize, String> {
    loaded.server.shutdown();
    let server = Server::open_with(Arc::new(TimingVfs::new(Instant::now())), &loaded.dir)
        .map_err(|e| format!("reopen: {e}"))?;
    let got = {
        let mut sess = server.session();
        sess.run(&crate::gen::intern_all_program())
            .map_err(|e| format!("intern after reopen: {e}"))?
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&loaded.dir);
    let [line] = &got[..] else {
        return Err(format!("intern after reopen printed {got:?}"));
    };
    let seqs: Vec<&str> = line
        .trim_matches(|c| c == '[' || c == ']')
        .split(", ")
        .collect();
    if seqs.len() != expected.len() {
        return Err(format!("intern after reopen printed {line}"));
    }
    Ok(seqs
        .iter()
        .zip(expected)
        .filter(|(g, e)| **g != e.to_string())
        .count())
}

/// A round counts toward the gated figures when the hypervisor withheld
/// at most this share of the CPU time the machine wanted during it. On a
/// shared 2-core host, rounds of `put_extern` ran at 85-90 commits/s
/// without steal and at 50-60 with 40% of the CPU time withheld, in
/// bursts of a few seconds; a program change cannot cause steal.
const STEAL_LIMIT: f64 = 0.02;

/// Per-round figures of a run, in round order.
#[derive(Default)]
struct Rounds {
    /// Set-up time as measured.
    setup_raw_s: Vec<f64>,
    /// Set-up time at the reference speed.
    setup_s: Vec<f64>,
    /// Length of the measured part.
    secs: Vec<f64>,
    /// Share of the machine's wanted CPU time that the hypervisor
    /// withheld from the start of the set-up to the end of the measured
    /// part.
    steal: Vec<f64>,
}

impl Rounds {
    /// The rounds the gated figures are taken over: those with at most
    /// [`STEAL_LIMIT`] steal, or, when fewer than a quarter of the rounds
    /// (and at least three) are, that many of the least disturbed.
    fn gated(&self) -> Vec<usize> {
        let n = self.steal.len();
        let want = (n / 4).max(3).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]));
        let calm = order
            .iter()
            .take_while(|&&r| self.steal[r] <= STEAL_LIMIT)
            .count();
        order.truncate(calm.max(want));
        order.sort_unstable();
        order
    }
}

/// Run one workload as `p` describes.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let origin = Instant::now();
    let store = Store::generate(p.seed, p.rows);
    let oracle = Oracle::new(&store);
    std::fs::create_dir_all(&p.work_dir).map_err(|e| format!("{}: {e}", p.work_dir.display()))?;
    let tag = format!("{}-{}", p.workload.name(), std::process::id());
    let end = origin + Duration::from_secs_f64(p.seconds);
    // A traced run needs an untraced and a traced round.
    let min_rounds = if p.trace { 2 } else { 1 };

    let mut rounds = Rounds::default();
    let mut run_ticks = [0, 0];
    let mut windows = [Window::default(), Window::default()];
    let mut samples = Vec::new();
    let mut program_spans = Vec::new();
    let mut io_spans = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut probe = None;
    let mut lossy_reopens = 0;
    for round in 0.. {
        let phase = Phase {
            round,
            traced: p.trace && round % 2 == 1,
            warm: false,
        };
        let ticks = stats::cpu_ticks();
        let (loaded, raw, scaled) =
            set_up(&store, p.work_dir.join(format!("{tag}-{round}")), origin)?;
        rounds.setup_raw_s.push(raw);
        rounds.setup_s.push(scaled);
        let (outs, window) = run_round(p, &loaded, &oracle, phase, origin);
        io_spans.extend(loaded.io.take_spans());
        rounds.secs.push(window.secs);
        let now = stats::cpu_ticks();
        rounds
            .steal
            .push(stats::steal_share([0, 1].map(|i| now[i] - ticks[i])));
        run_ticks = [0, 1].map(|i| run_ticks[i] + now[i] - ticks[i]);
        windows[usize::from(phase.traced)].add(window);

        let mut acked: BTreeMap<usize, i64> = BTreeMap::new();
        let mut new_empnos = Vec::new();
        for o in outs {
            attempted += o.samples.len() as u64;
            failed += o.samples.iter().filter(|s| !s.ok).count() as u64;
            samples.extend(o.samples.into_iter().filter(|s| !s.warm));
            program_spans.extend(o.log.spans);
            acked.extend(o.acked);
            new_empnos.extend(o.new_empnos);
            problems.extend(o.problems);
        }
        problems.extend(check_rows(&loaded, &store, new_empnos.len()));

        let last = round + 1 >= min_rounds && Instant::now() >= end;
        // A traced run measures the layers its workload leaves idle with a
        // short probe on the last round's store.
        if last && p.trace {
            let pr = run_probe(p, &loaded, &oracle.with_added(&new_empnos), origin);
            attempted += pr.attempted;
            failed += pr.failed;
            acked.extend(pr.acked.iter().map(|(h, s)| (*h, *s)));
            problems.extend(pr.problems.iter().cloned());
            probe = Some(pr);
        }
        let expected: Vec<i64> = (0..HANDLES)
            .map(|h| acked.get(&h).copied().unwrap_or(0))
            .collect();
        let misses = reopen_check(loaded, &expected)?;
        attempted += 1;
        if misses > 0 {
            lossy_reopens += 1;
            failed += misses as u64;
            problems.push(format!(
                "round {round}: reopen: {misses} of {HANDLES} handles lost their last acknowledged value"
            ));
        }
        if last {
            break;
        }
    }
    problems.truncate(20);
    let [untraced_w, traced_w] = windows;

    let prov = Provenance {
        rev: stats::git_rev(),
        nproc: stats::nproc(),
        p: p.clone(),
        rounds: rounds.secs.len(),
        attempted,
        measured_secs: untraced_w.secs + traced_w.secs,
        steal: stats::steal_share(run_ticks),
    };
    let mut report = vec![prov.line()];
    report.push(format!(
        "durability: after each of {} rounds the store was reopened and its {HANDLES} handles interned; {lossy_reopens} lost a value",
        rounds.secs.len()
    ));
    let (metrics, mut lines, trace_file) = if p.trace {
        let probe = probe.expect("traced runs probe");
        let measured = LayerInputs {
            spans: &program_spans,
            io_spans: &io_spans,
            timed: &traced_w,
            counted: &untraced_w,
            encoded: samples
                .iter()
                .filter(|s| s.ok && s.traced)
                .map(|s| s.encoded)
                .sum(),
            join_rows: oracle.join_rows(),
        };
        let (metrics, lines) =
            per_layer(&measured, &probe, &samples, untraced_w.secs, traced_w.secs);
        let file = p
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", p.workload.name(), p.seed));
        let mut all_spans = program_spans.clone();
        all_spans.extend(probe.spans.iter().copied());
        let mut all_io = io_spans.clone();
        all_io.extend(probe.io_spans.iter().copied());
        std::fs::write(&file, spans::to_jsonl(&all_spans, &all_io))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        (metrics, lines, Some(file))
    } else {
        let (metrics, lines) = end_to_end(p, &samples, &rounds, &untraced_w, attempted, failed);
        (metrics, lines, None)
    };
    report.append(&mut lines);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        report,
        trace_file,
    })
}

/// Where and how a result was measured.
struct Provenance {
    rev: String,
    nproc: usize,
    p: Params,
    rounds: usize,
    attempted: u64,
    measured_secs: f64,
    steal: f64,
}

impl Provenance {
    fn line(&self) -> String {
        let p = &self.p;
        format!(
            "provenance: workload={} rev={} nproc={} pinned_core={} seed={} rows={} sessions={SESSIONS} (closed loop) rounds={} programs_per_round={} (+{} warm-up) measured_s={:.3} steal={:.4} traced={} attempted={}",
            p.workload.name(),
            self.rev,
            self.nproc,
            stats::pinned_core().map_or("none".to_string(), |c| c.to_string()),
            p.seed,
            p.rows,
            self.rounds,
            p.round_programs,
            p.round_warmup,
            self.measured_secs,
            self.steal,
            p.trace,
            self.attempted
        )
    }
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

const MS: f64 = 1e6;

/// Latency in ms of the samples `keep` selects; a failed program counts
/// as missing every latency limit.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Dist {
    Dist::new(
        samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| {
                if s.ok {
                    s.latency_ns as f64 / MS
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
    )
}

/// `name value unit (n=…)`, or why the percentile is withheld.
fn pct_line(name: &str, d: &Dist, q: f64) -> String {
    match d.quantile(q) {
        None => format!("  {name:<22} n/a (no samples)"),
        Some(_) if !d.supports(q) => format!(
            "  {name:<22} FLAGGED: only {} samples beyond it (n={}), not reported",
            d.beyond(q),
            d.len()
        ),
        Some(v) => format!(
            "  {name:<22} {v:.4} ms (n={}, {} beyond)",
            d.len(),
            d.beyond(q)
        ),
    }
}

/// `name median unit (quartiles …, n=…)` over per-round figures.
fn spread_line(name: &str, unit: &str, values: &[f64], what: &str) -> String {
    let d = Dist::new(values.to_vec());
    let q = |x| d.quantile(x).unwrap_or(f64::NAN);
    format!(
        "  {name:<22} {:.4} {unit} (median of {} {what}, quartiles {:.4}-{:.4})",
        q(0.5),
        d.len(),
        q(0.25),
        q(0.75)
    )
}

fn end_to_end(
    p: &Params,
    samples: &[Sample],
    rounds: &Rounds,
    w: &Window,
    attempted: u64,
    failed: u64,
) -> (Vec<Metric>, Vec<String>) {
    let reads = latencies(samples, |s| !s.write);
    let writes = latencies(samples, |s| s.write);
    // The gated figures are at the reference host speed (see `calib`),
    // and each is the median of per-round figures over the rounds the
    // hypervisor left alone, so a round the host slowed moves them no more
    // than any other round. The latency gated is the median: a tail
    // percentile follows the share of programs that transient stalls on
    // the shared host reach. The rate is programs per second of session
    // time, the way a closed-loop session would run at that speed.
    let sessions = SESSIONS as f64;
    let (mut raw_rates, mut rates, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    for (r, secs) in rounds.secs.iter().enumerate() {
        let round: Vec<&Sample> = samples.iter().filter(|s| s.round == r).collect();
        let ok: Vec<f64> = round
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.scaled_ms())
            .collect();
        raw_rates.push(ok.len() as f64 / secs);
        rates.push(ok.len() as f64 * sessions * 1e3 / ok.iter().sum::<f64>());
        p50s.push(stats::median(
            &round.iter().map(|s| s.scaled_ms()).collect::<Vec<_>>(),
        ));
    }
    let gated = rounds.gated();
    let pick = |v: &[f64]| -> Vec<f64> { gated.iter().map(|&r| v[r]).collect() };
    let (setups, rates_g, p50s_g) = (pick(&rounds.setup_s), pick(&rates), pick(&p50s));
    let kernel_us = stats::median(
        &samples
            .iter()
            .map(|s| s.kernel_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let rss = stats::rss_peak_mb().unwrap_or(f64::NAN);
    let commits = samples.iter().filter(|s| s.write && s.ok).count() as f64;
    let encoded: u64 = samples
        .iter()
        .filter(|s| s.write && s.ok)
        .map(|s| s.encoded)
        .sum();

    let mut lines = vec!["end-to-end (untraced, as measured):".to_string()];
    lines.push(spread_line(
        "setup_s",
        "s",
        &rounds.setup_raw_s,
        &format!("set-ups of {} rows", p.rows),
    ));
    let rate = |n: usize| {
        if n == 0 {
            "n/a".to_string()
        } else {
            format!("{:.2} 1/s", n as f64 / w.secs)
        }
    };
    let n_reads = samples.iter().filter(|s| !s.write && s.ok).count();
    lines.push(format!("  {:<22} {}", "reads_per_s", rate(n_reads)));
    lines.push(format!(
        "  {:<22} {}",
        "commits_per_s",
        rate(commits as usize)
    ));
    lines.push(pct_line("read_p50_ms", &reads, 0.5));
    lines.push(pct_line("read_p99_ms", &reads, 0.99));
    lines.push(pct_line("write_p50_ms", &writes, 0.5));
    lines.push(pct_line("write_p99_ms", &writes, 0.99));
    lines.push(format!(
        "  {:<22} {:.6} ({failed} of {attempted})",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    ));
    let per_commit = |x: f64| {
        if commits > 0.0 {
            format!("{:.4}", x / commits)
        } else {
            "n/a".to_string()
        }
    };
    lines.push(format!(
        "  {:<22} {}",
        "fsyncs_per_commit",
        per_commit(w.io.fsyncs as f64)
    ));
    let amp = if encoded > 0 {
        format!("{:.4}", w.io.bytes as f64 / encoded as f64)
    } else {
        "n/a".to_string()
    };
    lines.push(format!(
        "  {:<22} {amp} (bytes written / encoded extern bytes)",
        "write_amp"
    ));
    lines.push(format!("  {:<22} {rss:.2} MB", "rss_peak_mb"));
    lines.push(format!(
        "calibration: kernel median {kernel_us:.1} us against {:.1} us on the reference host, so this host ran at {:.3} of its speed",
        calib::REFERENCE_NS / 1e3,
        calib::REFERENCE_NS / 1e3 / kernel_us
    ));
    lines.push(format!(
        "gated metrics (at the reference speed; medians over {} of {} rounds of {} programs; a round counts with at most {STEAL_LIMIT} steal):",
        gated.len(),
        rates.len(),
        p.round_programs
    ));
    lines.push(spread_line("ref_programs_per_s", "1/s", &rates_g, "rounds"));
    lines.push(spread_line("ref_p50_ms", "ms", &p50s_g, "rounds"));
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        items.join(" ")
    };
    lines.push(format!(
        "  per-round programs_per_s as measured: {}",
        list(&raw_rates)
    ));
    lines.push(format!("  per-round ref_programs_per_s: {}", list(&rates)));
    lines.push(format!("  per-round ref_p50_ms: {}", list(&p50s)));
    lines.push(format!("  per-round setup_s: {}", list(&rounds.setup_s)));
    lines.push(format!("  per-round steal: {}", list(&rounds.steal)));
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setups),
        },
        Metric {
            name: "ref_programs_per_s",
            unit: "1/s",
            value: stats::median(&rates_g),
        },
        Metric {
            name: "ref_p50_ms",
            unit: "ms",
            value: stats::median(&p50s_g),
        },
        Metric {
            name: "rss_peak_mb",
            unit: "MB",
            value: rss,
        },
    ];
    for m in &metrics {
        lines.push(format!("  {:<22} {} {}", m.name, m.value, m.unit));
    }
    (metrics, lines)
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    /// Program root spans and their replayed children.
    spans: &'a [Span],
    /// The applier's I/O while spans were kept.
    io_spans: &'a [IoSpan],
    /// The window the spans were recorded in.
    timed: &'a Window,
    /// A window without replays, for engine counters the replays would
    /// disturb.
    counted: &'a Window,
    /// Encoded bytes of the externs committed while spans were kept.
    encoded: u64,
    /// Output rows of one join.
    join_rows: usize,
}

/// The probe of a traced run.
struct Probe {
    spans: Vec<Span>,
    io_spans: Vec<IoSpan>,
    window: Window,
    encoded: u64,
    attempted: u64,
    failed: u64,
    acked: BTreeMap<usize, i64>,
    problems: Vec<String>,
}

/// Run every read kind, then a run of commits, one program at a time,
/// each followed by the replay of its layer calls. This measures the
/// layers a workload's own programs leave idle. Engine counters are read
/// around the runs only, so the replays do not reach them.
fn run_probe(p: &Params, loaded: &Loaded, oracle: &Oracle, origin: Instant) -> Probe {
    let kinds = [
        ReadKind::Count(0),
        ReadKind::Count(1),
        ReadKind::Count(2),
        ReadKind::Count(3),
        ReadKind::EmpnoSum,
        ReadKind::Join,
    ];
    let mut writer = Stream::new(p.seed, StreamKind::EmployeeWrites, 0, 1);
    // Seqs beyond any the measured phase can have issued.
    writer.issued = 1 << 40;
    let half = p.probe_programs / 2;
    let progs: Vec<Prog> = (0..half)
        .map(|i| Prog::Read(kinds[i % kinds.len()]))
        .chain((0..half).map(|_| writer.next()))
        .collect();
    // An id above any round session's, so span ids stay unique.
    let mut out = SessionOut::new(1 << 20, origin);
    let mut sess = loaded.server.session();
    let mut window = Window::default();
    let mut encoded = 0;
    let mut failed = 0;
    loaded.io.set_tracing(true);
    for prog in &progs {
        let before = Mark::now(&loaded.io);
        let ran = out.run_one(&mut sess, prog, oracle, true);
        window.add(before.window_to(&Mark::now(&loaded.io)));
        failed += u64::from(!ran.ok);
        encoded += if ran.ok { ran.encoded } else { 0 };
        out.trace(prog, &ran);
    }
    loaded.io.set_tracing(false);
    Probe {
        spans: out.log.spans,
        io_spans: loaded.io.take_spans(),
        window,
        encoded,
        attempted: progs.len() as u64,
        failed,
        acked: out.acked,
        problems: out.problems,
    }
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

/// Every per-layer metric these inputs measure; `None` where the layer
/// did no work.
fn layer_values(inp: &LayerInputs) -> BTreeMap<&'static str, Option<f64>> {
    let by_name = spans::totals_by_name(inp.spans);
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .and_then(|&(n, ns)| ratio(ns as f64 / 1e3, n as f64))
    };
    // Per program: its run time minus the replayed calls beneath it.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in inp.spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let residual = |root: &str| {
        let rs: Vec<f64> = inp
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| (s.dur_ns as f64 - *child_ns.get(&s.id).unwrap_or(&0) as f64) / 1e3)
            .collect();
        Dist::new(rs).mean()
    };
    let (t, c) = (inp.timed, inp.counted);
    // Each group-commit batch records its size, so the histogram's count
    // is batches and its sum is frames: commits.
    let (batches_c, commits_c) = c.histogram("group_commit.batch_size");
    let commits = t.histogram("group_commit.batch_size").1;
    let io_sum = |op: &str, f: fn(&IoSpan) -> u64| {
        inp.io_spans
            .iter()
            .filter(|s| s.op == op)
            .map(f)
            .sum::<u64>() as f64
    };
    let fsync_us = ratio(io_sum("fsync", |s| s.dur_ns) / 1e3, commits);
    let write_us = ratio(io_sum("write", |s| s.dur_ns) / 1e3, commits);
    let (waits, wait_us) = t.histogram("server.queue_wait_us");
    let queue_wait = ratio(wait_us, waits);
    let batches: BTreeSet<u64> = inp
        .io_spans
        .iter()
        .filter(|s| s.op == "fsync")
        .map(|s| s.batch)
        .collect();
    let joins = c.counter(&["join.strategy.partitioned", "join.strategy.nested"]);
    // A commit's run also waits in the queue and for its batch's I/O.
    let residual_write = residual("program.write")
        .map(|r| r - queue_wait.unwrap_or(0.0) - fsync_us.unwrap_or(0.0) - write_us.unwrap_or(0.0));
    BTreeMap::from([
        ("core.get_us", mean_us("get")),
        (
            "core.get_rows_scanned_per_match",
            ratio(
                c.counter(&["get.rows_scanned"]),
                c.counter(&["get.rows_sealed"]),
            ),
        ),
        (
            "types.subtype_cache_hit_ratio",
            ratio(
                c.counter(&["subtype.cache.hits"]),
                c.counter(&["subtype.cache.hits", "subtype.cache.misses"]),
            ),
        ),
        ("lang.parse_us", mean_us("parse")),
        ("lang.check_us", mean_us("check")),
        ("lang.run_read_us", mean_us("program.read")),
        ("lang.residual_read_us", residual("program.read")),
        ("core.clone_put_us", mean_us("clone_put")),
        ("lang.run_write_us", mean_us("program.write")),
        ("lang.residual_write_us", residual_write),
        (
            "stats.observed_puts_per_commit",
            ratio(c.counter(&["stats.observed_puts"]), commits_c),
        ),
        ("server.queue_wait_us", queue_wait),
        ("server.batch_size", ratio(commits_c, batches_c)),
        (
            "server.snapshot_publishes_per_commit",
            ratio(c.counter(&["snapshot.publish"]), commits_c),
        ),
        ("persist.encode_us", mean_us("encode")),
        ("persist.fsync_us_per_commit", fsync_us),
        ("persist.write_us_per_commit", write_us),
        (
            "persist.bytes_per_commit",
            ratio(io_sum("write", |s| s.bytes), commits),
        ),
        (
            "persist.fsyncs_per_batch",
            ratio(io_sum("fsync", |_| 1), batches.len() as f64),
        ),
        (
            "persist.fsyncs_per_commit",
            ratio(io_sum("fsync", |_| 1), commits),
        ),
        (
            "persist.write_amp",
            ratio(io_sum("write", |s| s.bytes), inp.encoded as f64),
        ),
        ("relation.join_us", mean_us("join")),
        (
            "relation.join_fallback_rows",
            ratio(c.counter(&["join.partitioned.fallback_rows"]), joins),
        ),
        (
            "relation.join_useful_ratio",
            ratio(
                inp.join_rows as f64 * joins,
                c.counter(&["join.products.serial", "join.products.parallel"]),
            ),
        ),
    ])
}

/// Units of the per-layer metrics, in report order.
pub const LAYER_UNITS: [(&str, &str); 26] = [
    ("core.get_us", "us"),
    ("core.get_rows_scanned_per_match", "ratio"),
    ("types.subtype_cache_hit_ratio", "ratio"),
    ("lang.parse_us", "us"),
    ("lang.check_us", "us"),
    ("lang.run_read_us", "us"),
    ("lang.residual_read_us", "us"),
    ("core.clone_put_us", "us"),
    ("lang.run_write_us", "us"),
    ("lang.residual_write_us", "us"),
    ("stats.observed_puts_per_commit", "count"),
    ("server.queue_wait_us", "us"),
    ("server.batch_size", "count"),
    ("server.snapshot_publishes_per_commit", "ratio"),
    ("persist.encode_us", "us"),
    ("persist.fsync_us_per_commit", "us"),
    ("persist.write_us_per_commit", "us"),
    ("persist.bytes_per_commit", "B"),
    ("persist.fsyncs_per_batch", "count"),
    ("persist.fsyncs_per_commit", "count"),
    ("persist.write_amp", "ratio"),
    ("relation.join_us", "us"),
    ("relation.join_fallback_rows", "count"),
    ("relation.join_useful_ratio", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.gen_lag_p99_ms", "ms"),
];

fn per_layer(
    measured: &LayerInputs,
    probe: &Probe,
    samples: &[Sample],
    untraced_secs: f64,
    traced_secs: f64,
) -> (Vec<Metric>, Vec<String>) {
    let main = layer_values(measured);
    let probed = layer_values(&LayerInputs {
        spans: &probe.spans,
        io_spans: &probe.io_spans,
        timed: &probe.window,
        counted: &probe.window,
        encoded: probe.encoded,
        join_rows: measured.join_rows,
    });
    let ok = |traced: bool| {
        samples
            .iter()
            .filter(|s| s.ok && s.traced == traced)
            .count() as f64
    };
    let overhead = 1.0 - (ok(true) / traced_secs) / (ok(false) / untraced_secs);
    let lags = Dist::new(samples.iter().map(|s| s.lag_ns as f64 / MS).collect());
    let mut metrics = Vec::new();
    let mut lines = vec![format!(
        "per-layer (traced rounds {traced_secs:.2} s, untraced rounds {untraced_secs:.2} s):"
    )];
    for (name, unit) in LAYER_UNITS {
        let (value, source) = match name {
            "obs.trace_overhead_frac" => (Some(overhead), "traced vs untraced programs/s"),
            "bench.gen_lag_p99_ms" => {
                let src = if lags.supports(0.99) {
                    "generator lateness"
                } else {
                    "FLAGGED: fewer than 10 samples beyond p99"
                };
                (lags.quantile(0.99), src)
            }
            _ => match (main[name], probed[name]) {
                (Some(v), _) => (Some(v), "measured programs"),
                (None, Some(v)) => (Some(v), "probe: layer idle in this workload's programs"),
                (None, None) => (None, "idle"),
            },
        };
        let value = value.unwrap_or(0.0);
        lines.push(format!("  {name:<38} {value:>14.4} {unit:<6} {source}"));
        metrics.push(Metric { name, unit, value });
    }
    lines.push(format!(
        "  {:<38} {:>14} samples",
        "bench.gen_lag samples",
        lags.len()
    ));
    (metrics, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds(steal: &[f64]) -> Rounds {
        Rounds {
            steal: steal.to_vec(),
            ..Rounds::default()
        }
    }

    #[test]
    fn gated_rounds_are_the_calm_ones_or_the_least_disturbed() {
        let calm = rounds(&[0.0, 0.5, 0.01, 0.0, 0.02, 0.3, 0.0, 0.0]);
        assert_eq!(calm.gated(), vec![0, 2, 3, 4, 6, 7]);
        let stormy = rounds(&[0.4, 0.5, 0.01, 0.3, 0.6, 0.2, 0.5, 0.45]);
        assert_eq!(stormy.gated(), vec![2, 3, 5]);
        assert_eq!(rounds(&[0.9, 0.8]).gated(), vec![0, 1]);
    }
}
