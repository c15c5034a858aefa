//! In-memory span recorder with parent links, and the self-time
//! arithmetic that turns spans into per-layer busy times.
//!
//! Spans are recorded by the benchmark around each call into a layer
//! (never inside the crates), kept in a `Vec` while the run lasts and
//! written out once at the end. A span's *self time* is its duration
//! minus the durations of its direct children; because spans come from
//! a strict enter/exit stack, children are disjoint and lie inside
//! their parent, so that difference is exactly the part of the interval
//! no child covers.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// The modules of the repository, used as layer names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Sim,
    Callproc,
    Db,
    Audit,
    Recovery,
    Store,
    Isa,
    Pecos,
}

impl Layer {
    pub const ALL: [Layer; 8] = [
        Layer::Sim,
        Layer::Callproc,
        Layer::Db,
        Layer::Audit,
        Layer::Recovery,
        Layer::Store,
        Layer::Isa,
        Layer::Pecos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Callproc => "callproc",
            Layer::Db => "db",
            Layer::Audit => "audit",
            Layer::Recovery => "recovery",
            Layer::Store => "store",
            Layer::Isa => "isa",
            Layer::Pecos => "pecos",
        }
    }
}

/// What a span wraps. Glue spans (`Run`, `Round`, `PecosRun`) belong
/// to no layer: their self time is the benchmark's own loop overhead
/// and counts against coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Run,
    Round,
    SimQueue,
    CallSetup,
    CallPoll,
    CallTeardown,
    StoreSync,
    GoldenRead,
    Checkpoint,
    Compact,
    Recover,
    AuditDrain,
    AuditCycle,
    Supervise,
    RecoveryIngest,
    RecoveryCycle,
    PecosRun,
    DbBuild,
    DbBridge,
    IsaLoad,
    IsaExec,
    PecosHandle,
}

impl Kind {
    pub const COUNT: usize = 22;

    /// Every kind, in discriminant order.
    pub const ALL: [Kind; Kind::COUNT] = [
        Kind::Run,
        Kind::Round,
        Kind::SimQueue,
        Kind::CallSetup,
        Kind::CallPoll,
        Kind::CallTeardown,
        Kind::StoreSync,
        Kind::GoldenRead,
        Kind::Checkpoint,
        Kind::Compact,
        Kind::Recover,
        Kind::AuditDrain,
        Kind::AuditCycle,
        Kind::Supervise,
        Kind::RecoveryIngest,
        Kind::RecoveryCycle,
        Kind::PecosRun,
        Kind::DbBuild,
        Kind::DbBridge,
        Kind::IsaLoad,
        Kind::IsaExec,
        Kind::PecosHandle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Round => "round",
            Kind::SimQueue => "sim.queue",
            Kind::CallSetup => "callproc.setup",
            Kind::CallPoll => "callproc.poll",
            Kind::CallTeardown => "callproc.teardown",
            Kind::StoreSync => "store.sync",
            Kind::GoldenRead => "store.golden_read",
            Kind::Checkpoint => "store.ckpt",
            Kind::Compact => "store.compact",
            Kind::Recover => "store.recover",
            Kind::AuditDrain => "audit.drain",
            Kind::AuditCycle => "audit.cycle",
            Kind::Supervise => "audit.supervise",
            Kind::RecoveryIngest => "recovery.ingest",
            Kind::RecoveryCycle => "recovery.cycle",
            Kind::PecosRun => "pecos.run",
            Kind::DbBuild => "db.build",
            Kind::DbBridge => "db.bridge",
            Kind::IsaLoad => "isa.load",
            Kind::IsaExec => "isa.exec",
            Kind::PecosHandle => "pecos.handle",
        }
    }

    pub fn layer(self) -> Option<Layer> {
        match self {
            Kind::Run | Kind::Round | Kind::PecosRun => None,
            Kind::SimQueue => Some(Layer::Sim),
            Kind::CallSetup | Kind::CallPoll | Kind::CallTeardown => Some(Layer::Callproc),
            Kind::StoreSync
            | Kind::GoldenRead
            | Kind::Checkpoint
            | Kind::Compact
            | Kind::Recover => Some(Layer::Store),
            Kind::AuditDrain | Kind::AuditCycle | Kind::Supervise => Some(Layer::Audit),
            Kind::RecoveryIngest | Kind::RecoveryCycle => Some(Layer::Recovery),
            Kind::DbBuild | Kind::DbBridge => Some(Layer::Db),
            Kind::IsaLoad | Kind::IsaExec => Some(Layer::Isa),
            Kind::PecosHandle => Some(Layer::Pecos),
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every call is a single branch when not.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `kind` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, kind: Kind) {
        if !self.enabled {
            return;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { kind, start_ns, end_ns: start_ns, parent });
        self.stack.push(id);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as `id,name,start_ns,end_ns,parent` lines
    /// (parent `-` for top-level spans).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                writeln!(out, "{id},{},{},{},-", s.kind.name(), s.start_ns, s.end_ns)?;
            } else {
                writeln!(out, "{id},{},{},{},{}", s.kind.name(), s.start_ns, s.end_ns, s.parent)?;
            }
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time and span count per [`Kind`], summed over a span list.
#[derive(Debug, Clone, Default)]
pub struct KindTotals {
    self_ns: [u64; Kind::COUNT],
    count: [u64; Kind::COUNT],
}

impl KindTotals {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut totals = KindTotals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            totals.self_ns[s.kind as usize] += own;
            totals.count[s.kind as usize] += 1;
        }
        totals
    }

    pub fn self_us(&self, kind: Kind) -> f64 {
        self.self_ns[kind as usize] as f64 / 1e3
    }

    pub fn count(&self, kind: Kind) -> u64 {
        self.count[kind as usize]
    }

    /// Self time of every span that belongs to `layer`.
    pub fn layer_us(&self, layer: Layer) -> f64 {
        let ns: u64 = Kind::ALL
            .iter()
            .filter(|k| k.layer() == Some(layer))
            .map(|&k| self.self_ns[k as usize])
            .sum();
        ns as f64 / 1e3
    }

    /// Self time of every span that belongs to some layer.
    pub fn covered_us(&self) -> f64 {
        Layer::ALL.iter().map(|&l| self.layer_us(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { kind, start_ns, end_ns, parent }
    }

    #[test]
    fn kind_table_matches_discriminants() {
        for (i, kind) in Kind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn nested_spans_subtract_each_level_once() {
        // run [0,100) > round [10,60) > sync [20,30)
        let spans = [
            span(Kind::Run, 0, 100, NO_PARENT),
            span(Kind::Round, 10, 60, 0),
            span(Kind::StoreSync, 20, 30, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_each_subtract_from_the_parent() {
        // round [0,100) > sync [0,20), golden [20,70), cycle [80,95)
        let spans = [
            span(Kind::Round, 0, 100, NO_PARENT),
            span(Kind::StoreSync, 0, 20, 0),
            span(Kind::GoldenRead, 20, 70, 0),
            span(Kind::AuditCycle, 80, 95, 0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![15, 20, 50, 15]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times partition the root");
        let totals = KindTotals::from_spans(&spans);
        assert!((totals.layer_us(Layer::Store) - 0.070).abs() < 1e-12);
        assert!((totals.covered_us() - 0.085).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_by_enter_exit_order() {
        let mut t = Tracer::new(true);
        t.enter(Kind::Run);
        t.enter(Kind::Round);
        t.enter(Kind::StoreSync);
        t.exit();
        t.enter(Kind::AuditCycle);
        t.exit();
        t.exit();
        t.enter(Kind::SimQueue);
        t.exit();
        t.exit();
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 1, 0]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(t.spans());
        assert_eq!(own.iter().sum::<u64>(), t.spans()[0].duration_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        t.enter(Kind::Run);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
