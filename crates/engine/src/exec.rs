//! The backtracking interpreter (paper Algorithm 1/2 with BENU plans).
//!
//! Execution walks the compiled instruction list; every `Foreach` opens a
//! nested loop realised as recursion. Two properties keep the hot path
//! allocation-free and faithful to the paper:
//!
//! * intersection targets write into per-register scratch buffers that are
//!   reused across executions (take/put-back around recursion);
//! * an empty intersection result aborts the current branch immediately —
//!   the "doomed-to-fail partial match" pruning that motivates on-demand
//!   shuffling.
//!
//! Count-only runs (pooled engine, consumer without `needs_matches`) also
//! evaluate the innermost enumeration level arithmetically instead of
//! recursing once per match (DESIGN.md §4l).

use crate::compile::{CFilter, CInstr, COperand, CompiledPlan};
use crate::consumer::MatchConsumer;
use crate::expand;
use crate::source::DataSource;
use crate::task::SearchTask;
use benu_cache::{CliqueCache, TriangleCache};
use benu_graph::ops::{intersect_into, intersect_many_into};
use benu_graph::view;
use benu_graph::{AdjSet, AdjView, TotalOrder, VertexId};
use benu_plan::FilterOp;
use std::convert::Infallible;
use std::sync::Arc;

/// Marker for an unmapped pattern vertex.
pub(crate) const UNSET: VertexId = VertexId::MAX;

/// Default capacity of the per-thread triangle cache (entries).
pub const DEFAULT_TRIANGLE_CACHE_ENTRIES: usize = 1 << 14;

/// Per-run metrics accumulated by the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskMetrics {
    /// Embeddings found (expanded count for compressed plans).
    pub matches: u64,
    /// Compressed codes emitted (zero for uncompressed plans).
    pub codes: u64,
    /// Bytes of compressed output (helve vertices + image-set entries,
    /// 4 bytes each); the "output size" lever of VCBC.
    pub code_bytes: u64,
    /// DBQ instruction executions (cache hits included).
    pub dbq_executions: u64,
    /// INT instruction executions.
    pub int_executions: u64,
    /// TRC instruction executions.
    pub trc_executions: u64,
    /// KCache (clique-cache, §IV-B extension) instruction executions.
    /// Counted separately from `trc_executions` so clique-cached plans do
    /// not inflate the triangle-cache numbers.
    pub kcache_executions: u64,
    /// Candidate vertices iterated by ENU (`Foreach`) loops — the raw
    /// backtracking branch count before label filtering.
    pub enu_candidates: u64,
    /// Per-instruction observed cardinalities, indexed by the compiled
    /// plan's instruction slot (`CInstr` and `Instruction` indices align
    /// one-to-one). Deterministic and cache/pooling-independent: cache
    /// hits record the same output sizes a cold execution would. Feeds
    /// [`benu_plan::FeedbackEstimator`].
    pub obs: benu_plan::PlanObs,
}

impl std::ops::AddAssign for TaskMetrics {
    fn add_assign(&mut self, rhs: Self) {
        self.matches += rhs.matches;
        self.codes += rhs.codes;
        self.code_bytes += rhs.code_bytes;
        self.dbq_executions += rhs.dbq_executions;
        self.int_executions += rhs.int_executions;
        self.trc_executions += rhs.trc_executions;
        self.kcache_executions += rhs.kcache_executions;
        self.enu_candidates += rhs.enu_candidates;
        self.obs += rhs.obs;
    }
}

impl TaskMetrics {
    /// Adds this accumulator into the registry's per-instruction-type
    /// counters (`engine.*`). Called once per merged batch — per worker
    /// thread or per run — never on the per-instruction hot path.
    pub fn record_into(&self, registry: &benu_obs::Registry) {
        registry.counter("engine.matches").add(self.matches);
        registry.counter("engine.codes").add(self.codes);
        registry.counter("engine.code_bytes").add(self.code_bytes);
        registry
            .counter("engine.dbq_executions")
            .add(self.dbq_executions);
        registry
            .counter("engine.int_executions")
            .add(self.int_executions);
        registry
            .counter("engine.trc_executions")
            .add(self.trc_executions);
        registry
            .counter("engine.kcache_executions")
            .add(self.kcache_executions);
        registry
            .counter("engine.enu_candidates")
            .add(self.enu_candidates);
        let (obs_candidates, obs_survivors) = self.obs.totals();
        registry
            .counter("engine.obs_candidates")
            .add(obs_candidates);
        registry.counter("engine.obs_survivors").add(obs_survivors);
    }
}

/// Effectiveness counters of the per-engine execution buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served by a recycled buffer (no allocation).
    pub hits: u64,
    /// `take` calls that allocated a fresh buffer (pool empty or
    /// pooling disabled).
    pub misses: u64,
    /// Buffers handed back for reuse.
    pub returns: u64,
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.returns += rhs.returns;
    }
}

/// A free-list of `Vec<VertexId>` buffers recycled across instructions
/// and tasks, so the steady-state hot loop performs no allocation: every
/// displaced `Slot::Buf` returns here instead of being dropped, and
/// every take reuses a previous buffer's capacity. Disabled, it hands
/// out fresh `Vec::new()`s and drops returns — the pre-pool baseline
/// the `hotpath` bench A/Bs against.
#[derive(Debug)]
struct BufferPool {
    free: Vec<Vec<VertexId>>,
    enabled: bool,
    stats: PoolStats,
}

impl BufferPool {
    fn new(enabled: bool) -> Self {
        BufferPool {
            free: Vec::new(),
            enabled,
            stats: PoolStats::default(),
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn take(&mut self) -> Vec<VertexId> {
        if !self.enabled {
            // Disabled pools are fully inert: no stats, always a fresh
            // allocation, so the unpooled A/B arm reports all-zero stats.
            return Vec::new();
        }
        if let Some(mut buf) = self.free.pop() {
            self.stats.hits += 1;
            buf.clear();
            return buf;
        }
        self.stats.misses += 1;
        Vec::new()
    }

    fn put(&mut self, buf: Vec<VertexId>) {
        if self.enabled && buf.capacity() > 0 {
            self.stats.returns += 1;
            self.free.push(buf);
        }
    }
}

/// Filter check as a free function over the borrowed pieces it actually
/// reads (`order`, the partial mapping `f`), so callers can run it while
/// other engine fields — a cache, the slot file — are mutably borrowed.
#[inline]
fn passes_filters(order: &TotalOrder, f: &[VertexId], x: VertexId, filters: &[CFilter]) -> bool {
    filters.iter().all(|fc| {
        let fv = f[fc.vertex];
        debug_assert_ne!(fv, UNSET, "filter references unmapped vertex");
        match fc.op {
            FilterOp::Less => order.less(x, fv),
            FilterOp::Greater => order.less(fv, x),
            FilterOp::NotEqual => x != fv,
        }
    })
}

/// [`passes_filters`] restricted to the order (`<`/`>`) filters; `!=`
/// filters pass. The count-only leaf memoises this part of its filter.
#[inline]
fn passes_order_filters(
    order: &TotalOrder,
    f: &[VertexId],
    x: VertexId,
    filters: &[CFilter],
) -> bool {
    filters.iter().all(|fc| match fc.op {
        FilterOp::Less => order.less(x, f[fc.vertex]),
        FilterOp::Greater => order.less(f[fc.vertex], x),
        FilterOp::NotEqual => true,
    })
}

/// The index range of a `Foreach`'s candidate set this task iterates:
/// the split-point loop of a split task covers only its share.
#[inline]
pub(crate) fn loop_range(is_second: bool, task: &SearchTask, len: usize) -> std::ops::Range<usize> {
    match (is_second, task.split) {
        (true, Some(split)) => split.range(len),
        _ => 0..len,
    }
}

/// Memo of the count-only leaf's order-filtered intersection size, valid
/// while the slot file is unchanged (`epoch`) and the order filters'
/// images are the same (`images`).
#[derive(Debug)]
struct LeafMemo {
    epoch: u64,
    images: Vec<VertexId>,
    count: u64,
}

/// A register slot holding a set value.
#[derive(Debug, Default)]
pub(crate) enum Slot {
    /// Not yet computed on this path.
    #[default]
    Empty,
    /// Owned intersection result (reusable buffer).
    Buf(Vec<VertexId>),
    /// Shared adjacency set from the data source.
    Adj(Arc<AdjSet>),
    /// Shared triangle set from the triangle cache.
    Tri(Arc<Vec<VertexId>>),
}

impl Slot {
    pub(crate) fn as_slice(&self) -> &[VertexId] {
        match self {
            Slot::Empty => panic!("read of undefined register (plan validated, so this is a bug)"),
            Slot::Buf(v) => v,
            Slot::Adj(a) => a.as_slice(),
            Slot::Tri(t) => t,
        }
    }

    /// The dual-representation borrow: adjacency slots expose their
    /// block sidecar (when the store built one) so intersections can
    /// dispatch to the block-wise kernels; owned buffers and triangle
    /// sets are slice-only.
    pub(crate) fn as_view(&self) -> AdjView<'_> {
        match self {
            Slot::Empty => panic!("read of undefined register (plan validated, so this is a bug)"),
            Slot::Buf(v) => AdjView::from_slice(v),
            Slot::Adj(a) => a.view(),
            Slot::Tri(t) => AdjView::from_slice(t),
        }
    }
}

/// Batched adjacency answers injected ahead of the data source by the
/// frontier driver ([`crate::frontier::FrontierEngine`]): while enabled,
/// a `GetAdj` whose data vertex is present in the map is served from it
/// instead of issuing a per-vertex source lookup. Disabled (the DFS
/// default), the hot path pays one predictable branch and nothing else.
#[derive(Debug, Default)]
pub(crate) struct AdjOverride {
    pub(crate) map: std::collections::HashMap<VertexId, Arc<AdjSet>>,
    pub(crate) enabled: bool,
}

/// How a straight-line segment of the plan ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StraightEnd {
    /// An intersection came up empty or the start vertex failed its
    /// label: the partial match is doomed, backtrack.
    Pruned,
    /// The segment ran to the end of the plan (any `Report` executed).
    Done,
    /// Execution stopped *at* a `Foreach` (not executed); the pc of that
    /// instruction is returned so the caller decides how to iterate it —
    /// recursively (DFS) or by materialising the candidates into a
    /// frontier level (BFS).
    Foreach(usize),
}

/// A single-threaded executor bound to one compiled plan, one data source
/// and one total order. One engine per worker thread; the triangle cache
/// it owns is exactly the paper's per-thread TRC cache.
pub struct LocalEngine<'a, S: DataSource + ?Sized> {
    pub(crate) plan: &'a CompiledPlan,
    pub(crate) source: &'a S,
    order: &'a TotalOrder,
    tcache: TriangleCache,
    ccache: CliqueCache,
    key_buf: Vec<VertexId>,
    data_labels: Option<&'a [u32]>,
    label_scratch: Vec<Vec<VertexId>>,
    pub(crate) f: Vec<VertexId>,
    pub(crate) slots: Vec<Slot>,
    scratch: Vec<VertexId>,
    scratch2: Vec<VertexId>,
    expand_f: Vec<VertexId>,
    pool: BufferPool,
    pub(crate) adj_override: AdjOverride,
    /// Reusable operand-register index buffer (`Intersect`).
    operand_regs: Vec<usize>,
    /// Reusable smallest-first ordering buffer for `intersect_many_by`.
    order_buf: Vec<usize>,
    /// pc of the terminal `Foreach` (followed only by `Report`) of an
    /// uncompressed plan: count-only runs count its survivors.
    terminal_foreach: Option<usize>,
    /// pc of the `Intersect` that feeds the terminal `Foreach` when that
    /// loop needs no per-candidate look (unlabeled, not the split
    /// point): count-only runs never materialise it.
    leaf_intersect: Option<usize>,
    /// Bumped on every write to the slot file; keys `leaf_memo`.
    slot_epoch: u64,
    leaf_memo: LeafMemo,
}

impl<'a, S: DataSource + ?Sized> LocalEngine<'a, S> {
    /// Creates an engine with the default triangle-cache capacity.
    pub fn new(plan: &'a CompiledPlan, source: &'a S, order: &'a TotalOrder) -> Self {
        Self::with_triangle_cache(plan, source, order, DEFAULT_TRIANGLE_CACHE_ENTRIES)
    }

    /// Creates an engine with an explicit triangle-cache capacity
    /// (0 disables caching but TRC instructions still compute correctly).
    pub fn with_triangle_cache(
        plan: &'a CompiledPlan,
        source: &'a S,
        order: &'a TotalOrder,
        tcache_entries: usize,
    ) -> Self {
        // Pre-size the small index/key buffers from plan metadata so
        // even their first use allocates nothing mid-task.
        let mut max_key = 0usize;
        let mut max_arity = 0usize;
        let mut max_filters = 0usize;
        for instr in &plan.instrs {
            match instr {
                CInstr::Intersect {
                    operands, filters, ..
                } => {
                    max_arity = max_arity.max(operands.len());
                    max_filters = max_filters.max(filters.len());
                }
                CInstr::KCache { verts, regs, .. } => {
                    max_key = max_key.max(verts.len());
                    max_arity = max_arity.max(regs.len());
                }
                _ => {}
            }
        }
        let (terminal_foreach, leaf_intersect) = count_leaf_shape(plan);
        LocalEngine {
            plan,
            source,
            order,
            tcache: TriangleCache::new(tcache_entries),
            ccache: CliqueCache::new(tcache_entries),
            key_buf: Vec::with_capacity(max_key),
            data_labels: None,
            label_scratch: Vec::new(),
            f: vec![UNSET; plan.num_pattern_vertices],
            slots: (0..plan.num_slots).map(|_| Slot::Empty).collect(),
            scratch: Vec::new(),
            scratch2: Vec::new(),
            expand_f: vec![UNSET; plan.num_pattern_vertices],
            pool: BufferPool::new(true),
            adj_override: AdjOverride::default(),
            operand_regs: Vec::with_capacity(max_arity),
            order_buf: Vec::with_capacity(max_arity),
            terminal_foreach,
            leaf_intersect,
            slot_epoch: 0,
            leaf_memo: LeafMemo {
                epoch: u64::MAX,
                images: Vec::with_capacity(max_filters),
                count: 0,
            },
        }
    }

    /// Enables or disables the execution buffer pool (default: enabled).
    /// Disabled, every buffer fallback allocates and displaced buffers
    /// are dropped — the pre-pool baseline arm of the `hotpath` bench.
    /// The produced matches are byte-identical either way.
    pub fn with_pooling(mut self, enabled: bool) -> Self {
        self.pool = BufferPool::new(enabled);
        self
    }

    /// Buffer-pool effectiveness counters for this engine.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats
    }

    /// Attaches per-data-vertex labels (property-graph extension): a
    /// labeled pattern vertex only matches data vertices carrying the
    /// same label.
    ///
    /// # Panics
    ///
    /// Panics later at task execution if the plan is labeled and no data
    /// labels were provided.
    pub fn with_data_labels(mut self, labels: &'a [u32]) -> Self {
        self.data_labels = Some(labels);
        self
    }

    /// True when data vertex `x` is an admissible image of pattern vertex
    /// `u` under the label constraints.
    #[inline]
    pub(crate) fn label_ok(&self, u: usize, x: VertexId) -> bool {
        match self.plan.labels[u] {
            None => true,
            Some(need) => {
                let labels = self
                    .data_labels
                    .expect("labeled plan requires data labels (with_data_labels)");
                labels[x as usize] == need
            }
        }
    }

    /// Runs one local search task, reporting into `consumer`.
    ///
    /// # Errors
    ///
    /// The first failed source lookup: the task stops at that fetch and
    /// issues no further ones. Whatever it already reported is partial,
    /// so the caller reruns the task or discards its output. The engine
    /// itself stays reusable — the next task starts from a clean state.
    pub fn try_run_task(
        &mut self,
        task: SearchTask,
        consumer: &mut dyn MatchConsumer,
    ) -> Result<TaskMetrics, S::Error> {
        let mut metrics = TaskMetrics::default();
        self.f.fill(UNSET);
        self.slot_epoch += 1;
        if self.pool.enabled() {
            // Return the previous task's owned buffers to the pool: every
            // plan writes a register before reading it, so the slot file
            // carries no live state across tasks — only reusable capacity,
            // which the pool hands back to this task's first takes.
            self.recycle_slots();
        }
        self.step(0, &task, consumer, &mut metrics)?;
        Ok(metrics)
    }

    fn recycle_slots(&mut self) {
        for slot in &mut self.slots {
            if matches!(slot, Slot::Buf(_)) {
                if let Slot::Buf(b) = std::mem::take(slot) {
                    self.pool.put(b);
                }
            }
        }
    }

    /// Hands a no-longer-shared buffer back to the pool (the frontier
    /// driver recycles thawed level buffers through here, keeping the
    /// BFS expansion pool-backed like the DFS slot file).
    pub(crate) fn pool_put(&mut self, buf: Vec<VertexId>) {
        self.pool.put(buf);
    }

    /// Triangle-cache statistics of this engine's thread.
    pub fn triangle_cache_stats(&self) -> benu_cache::CacheStats {
        self.tcache.stats()
    }

    /// Clique-cache statistics of this engine's thread (the §IV-B
    /// extension; all zeros unless the plan uses KCache instructions).
    pub fn clique_cache_stats(&self) -> benu_cache::CacheStats {
        self.ccache.stats()
    }

    fn passes_filters(&self, x: VertexId, filters: &[CFilter]) -> bool {
        passes_filters(self.order, &self.f, x, filters)
    }

    /// Stores `value` into the slot file, recycling any displaced owned
    /// buffer through the pool instead of dropping it.
    #[inline]
    pub(crate) fn set_slot(&mut self, target: usize, value: Slot) {
        self.slot_epoch += 1;
        if let Slot::Buf(b) = std::mem::replace(&mut self.slots[target], value) {
            self.pool.put(b);
        }
    }

    /// True when this run only counts: the consumer takes no matches and
    /// the engine is pooled (the unpooled arm stays the pre-change A/B
    /// baseline). Gates the count-only leaf (DESIGN.md §4l).
    #[inline]
    fn counts_only(&self, consumer: &dyn MatchConsumer) -> bool {
        self.pool.enabled() && !consumer.needs_matches()
    }

    /// Executes instructions from `pc` to the end (recursing at each
    /// `Foreach`). Returns early when an intersection comes up empty.
    pub(crate) fn step(
        &mut self,
        pc: usize,
        task: &SearchTask,
        consumer: &mut dyn MatchConsumer,
        metrics: &mut TaskMetrics,
    ) -> Result<(), S::Error> {
        match self.exec_straight(pc, task, consumer, metrics)? {
            StraightEnd::Pruned | StraightEnd::Done => {}
            StraightEnd::Foreach(fpc) => {
                let plan = self.plan;
                let CInstr::Foreach {
                    vertex,
                    source,
                    is_second,
                } = &plan.instrs[fpc]
                else {
                    unreachable!("exec_straight stops only at Foreach")
                };
                let vertex = *vertex;
                // Take the candidate set out of its slot for the
                // duration of the loop; nothing below reads it (its
                // only other possible reader is RES in compressed
                // plans, where this vertex has no Foreach at all).
                let slot = std::mem::take(&mut self.slots[*source]);
                let items = slot.as_slice();
                let range = loop_range(*is_second, task, items.len());
                // Iterate by index to keep `self` free for recursion.
                let considered = (range.end - range.start) as u64;
                metrics.enu_candidates += considered;
                let survivors = if Some(fpc) == self.terminal_foreach && self.counts_only(consumer)
                {
                    // The body is just `Report`: every survivor is one
                    // match, so count them instead of recursing.
                    let survivors = if plan.labels[vertex].is_none() {
                        considered
                    } else {
                        items[range]
                            .iter()
                            .filter(|&&x| self.label_ok(vertex, x))
                            .count() as u64
                    };
                    metrics.matches += survivors;
                    survivors
                } else {
                    let mut survivors = 0u64;
                    for i in range {
                        let x = match &slot {
                            Slot::Buf(v) => v[i],
                            Slot::Adj(a) => a.as_slice()[i],
                            Slot::Tri(t) => t[i],
                            Slot::Empty => unreachable!(),
                        };
                        if !self.label_ok(vertex, x) {
                            continue;
                        }
                        survivors += 1;
                        self.f[vertex] = x;
                        self.step(fpc + 1, task, consumer, metrics)?;
                    }
                    self.f[vertex] = UNSET;
                    survivors
                };
                self.slots[*source] = slot;
                if let Some(s) = metrics.obs.slot_mut(fpc) {
                    s.candidates += considered;
                    s.survivors += survivors;
                }
            }
        }
        Ok(())
    }

    /// Executes the straight-line segment starting at `pc`: every
    /// instruction up to (but not including) the next `Foreach`, or to
    /// the end of the plan. This is the resumable core both execution
    /// strategies share — [`LocalEngine::step`] recurses at the returned
    /// `Foreach`, the frontier engine materialises its candidates
    /// breadth-first instead. A failed source lookup ends the segment
    /// with the error.
    pub(crate) fn exec_straight(
        &mut self,
        mut pc: usize,
        task: &SearchTask,
        consumer: &mut dyn MatchConsumer,
        metrics: &mut TaskMetrics,
    ) -> Result<StraightEnd, S::Error> {
        // Copy the plan reference out of `self` so matching on
        // instructions does not hold a borrow of the whole engine.
        let plan = self.plan;
        while pc < plan.instrs.len() {
            match &plan.instrs[pc] {
                CInstr::Init { vertex } => {
                    if !self.label_ok(*vertex, task.start) {
                        return Ok(StraightEnd::Pruned); // the start vertex cannot host this task
                    }
                    self.f[*vertex] = task.start;
                }
                CInstr::GetAdj { vertex, target } => {
                    metrics.dbq_executions += 1;
                    let v = self.f[*vertex];
                    debug_assert_ne!(v, UNSET);
                    let adj = if self.adj_override.enabled {
                        match self.adj_override.map.get(&v) {
                            Some(a) => Arc::clone(a),
                            None => self.source.get_adj(v)?,
                        }
                    } else {
                        self.source.get_adj(v)?
                    };
                    if let Some(s) = metrics.obs.slot_mut(pc) {
                        s.candidates += 1;
                        s.survivors += adj.as_slice().len() as u64;
                    }
                    self.set_slot(*target, Slot::Adj(adj));
                }
                CInstr::Intersect {
                    target,
                    operands,
                    filters,
                } => {
                    if Some(pc) == self.leaf_intersect && self.counts_only(consumer) {
                        return Ok(self.count_leaf(pc, operands, filters, metrics));
                    }
                    metrics.int_executions += 1;
                    self.slot_epoch += 1;
                    let target = *target;
                    let mut buf = match std::mem::take(&mut self.slots[target]) {
                        Slot::Buf(b) => b,
                        _ => self.pool.take(),
                    };
                    self.compute_intersection(operands, filters, &mut buf);
                    let empty = buf.is_empty();
                    if let Some(s) = metrics.obs.slot_mut(pc) {
                        s.candidates += 1;
                        s.survivors += buf.len() as u64;
                    }
                    self.slots[target] = Slot::Buf(buf);
                    if empty {
                        return Ok(StraightEnd::Pruned); // failed partial match: backtrack
                    }
                }
                CInstr::TCache {
                    a,
                    b,
                    a_reg,
                    b_reg,
                    target,
                    filters,
                } => {
                    metrics.trc_executions += 1;
                    self.slot_epoch += 1;
                    let (va, vb) = (self.f[*a], self.f[*b]);
                    let target = *target;
                    // The cache stores the raw triangle set; filters are
                    // applied per use because they depend on other
                    // mappings.
                    // Pooled engines intersect through the views (block
                    // kernels when a dense operand is present); the
                    // unpooled baseline keeps the scalar merge verbatim.
                    let pooled = self.pool.enabled();
                    let empty = if filters.is_empty() {
                        let (a_view, b_view) =
                            (self.slots[*a_reg].as_view(), self.slots[*b_reg].as_view());
                        let tri = self.tcache.get_or_compute(va, vb, || {
                            let mut out = Vec::new();
                            if pooled {
                                view::intersect_into(a_view, b_view, &mut out);
                            } else {
                                intersect_into(a_view.ids, b_view.ids, &mut out);
                            }
                            out
                        });
                        let empty = tri.is_empty();
                        if let Some(s) = metrics.obs.slot_mut(pc) {
                            s.candidates += 1;
                            s.survivors += tri.len() as u64;
                        }
                        self.set_slot(target, Slot::Tri(tri));
                        empty
                    } else {
                        // The filtered copy only reads the triangle set,
                        // so borrow it from the cache instead of cloning
                        // the Arc. Target never aliases an operand
                        // register (the Intersect arm relies on the same
                        // compile invariant), so the buffer can be taken
                        // up front.
                        let mut buf = match std::mem::take(&mut self.slots[target]) {
                            Slot::Buf(b) => b,
                            _ => self.pool.take(),
                        };
                        let (a_view, b_view) =
                            (self.slots[*a_reg].as_view(), self.slots[*b_reg].as_view());
                        let order = self.order;
                        let f = &self.f;
                        let empty = self.tcache.with_or_compute(
                            va,
                            vb,
                            || {
                                let mut out = Vec::new();
                                if pooled {
                                    view::intersect_into(a_view, b_view, &mut out);
                                } else {
                                    intersect_into(a_view.ids, b_view.ids, &mut out);
                                }
                                out
                            },
                            |tri| {
                                buf.clear();
                                for &x in tri {
                                    if passes_filters(order, f, x, filters) {
                                        buf.push(x);
                                    }
                                }
                                buf.is_empty()
                            },
                        );
                        if let Some(s) = metrics.obs.slot_mut(pc) {
                            s.candidates += 1;
                            s.survivors += buf.len() as u64;
                        }
                        self.slots[target] = Slot::Buf(buf);
                        empty
                    };
                    if empty {
                        return Ok(StraightEnd::Pruned);
                    }
                }
                CInstr::KCache {
                    verts,
                    regs,
                    target,
                    filters,
                } => {
                    metrics.kcache_executions += 1;
                    self.slot_epoch += 1;
                    // The cache key is the sorted tuple of mapped data
                    // vertices — the clique instance's identity.
                    self.key_buf.clear();
                    self.key_buf.extend(verts.iter().map(|&v| self.f[v]));
                    self.key_buf.sort_unstable();
                    let target = *target;
                    let empty = if self.pool.enabled() {
                        // Pooled path: operands are addressed through the
                        // slot file by index (`intersect_many_by`), so no
                        // per-execution slice vector is materialised, and
                        // the miss closure reuses the engine's scratch
                        // and ordering buffers.
                        let mut scratch = std::mem::take(&mut self.scratch);
                        let mut order_buf = std::mem::take(&mut self.order_buf);
                        let empty = if filters.is_empty() {
                            let slots = &self.slots;
                            let clique_set = self.ccache.get_or_compute(&self.key_buf, || {
                                let mut out = Vec::new();
                                view::intersect_many_by(
                                    regs.len(),
                                    |i| slots[regs[i]].as_view(),
                                    &mut order_buf,
                                    &mut out,
                                    &mut scratch,
                                );
                                out
                            });
                            let empty = clique_set.is_empty();
                            if let Some(s) = metrics.obs.slot_mut(pc) {
                                s.candidates += 1;
                                s.survivors += clique_set.len() as u64;
                            }
                            self.set_slot(target, Slot::Tri(clique_set));
                            empty
                        } else {
                            let mut buf = match std::mem::take(&mut self.slots[target]) {
                                Slot::Buf(b) => b,
                                _ => self.pool.take(),
                            };
                            let slots = &self.slots;
                            let order = self.order;
                            let f = &self.f;
                            let empty = self.ccache.with_or_compute(
                                &self.key_buf,
                                || {
                                    let mut out = Vec::new();
                                    view::intersect_many_by(
                                        regs.len(),
                                        |i| slots[regs[i]].as_view(),
                                        &mut order_buf,
                                        &mut out,
                                        &mut scratch,
                                    );
                                    out
                                },
                                |set| {
                                    buf.clear();
                                    for &x in set {
                                        if passes_filters(order, f, x, filters) {
                                            buf.push(x);
                                        }
                                    }
                                    buf.is_empty()
                                },
                            );
                            if let Some(s) = metrics.obs.slot_mut(pc) {
                                s.candidates += 1;
                                s.survivors += buf.len() as u64;
                            }
                            self.slots[target] = Slot::Buf(buf);
                            empty
                        };
                        self.scratch = scratch;
                        self.order_buf = order_buf;
                        empty
                    } else {
                        // Baseline (pre-pool) path: a fresh operand slice
                        // vector and fresh intersection buffers per
                        // execution — kept verbatim as the A/B baseline.
                        let slices: Vec<&[VertexId]> =
                            regs.iter().map(|&r| self.slots[r].as_slice()).collect();
                        let key = std::mem::take(&mut self.key_buf);
                        let clique_set = self.ccache.get_or_compute(&key, || {
                            let mut out = Vec::new();
                            let mut scratch = Vec::new();
                            intersect_many_into(&slices, &mut out, &mut scratch);
                            out
                        });
                        self.key_buf = key;
                        if filters.is_empty() {
                            let empty = clique_set.is_empty();
                            if let Some(s) = metrics.obs.slot_mut(pc) {
                                s.candidates += 1;
                                s.survivors += clique_set.len() as u64;
                            }
                            self.slots[target] = Slot::Tri(clique_set);
                            empty
                        } else {
                            let mut buf = match std::mem::take(&mut self.slots[target]) {
                                Slot::Buf(b) => b,
                                _ => Vec::new(),
                            };
                            buf.clear();
                            for &x in clique_set.iter() {
                                if self.passes_filters(x, filters) {
                                    buf.push(x);
                                }
                            }
                            let empty = buf.is_empty();
                            if let Some(s) = metrics.obs.slot_mut(pc) {
                                s.candidates += 1;
                                s.survivors += buf.len() as u64;
                            }
                            self.slots[target] = Slot::Buf(buf);
                            empty
                        }
                    };
                    if empty {
                        return Ok(StraightEnd::Pruned);
                    }
                }
                CInstr::Foreach { .. } => {
                    // The caller owns loop strategy; everything from here
                    // on is the loop body.
                    return Ok(StraightEnd::Foreach(pc));
                }
                CInstr::Report => {
                    self.report(consumer, metrics);
                }
            }
            pc += 1;
        }
        Ok(StraightEnd::Done)
    }

    /// Count-only evaluation of the leaf `Intersect` at `pc` together with
    /// the terminal `Foreach → Report` after it: the survivors are counted,
    /// never written, and every counter moves exactly as per-match
    /// enumeration would move it.
    fn count_leaf(
        &mut self,
        pc: usize,
        operands: &[COperand],
        filters: &[CFilter],
        metrics: &mut TaskMetrics,
    ) -> StraightEnd {
        metrics.int_executions += 1;
        let count = self.leaf_count(operands, filters);
        if let Some(s) = metrics.obs.slot_mut(pc) {
            s.candidates += 1;
            s.survivors += count;
        }
        if count == 0 {
            return StraightEnd::Pruned;
        }
        metrics.enu_candidates += count;
        if let Some(s) = metrics.obs.slot_mut(pc + 1) {
            s.candidates += count;
            s.survivors += count;
        }
        metrics.matches += count;
        StraightEnd::Done
    }

    /// `|∩ operands|` under `filters`, without materialising the set. The
    /// order-filtered size is memoised per (slot epoch, order-filter
    /// images); each distinct `!=` image is then subtracted when it is a
    /// member of every operand and passes the order filters.
    fn leaf_count(&mut self, operands: &[COperand], filters: &[CFilter]) -> u64 {
        self.operand_regs.clear();
        for op in operands {
            if let COperand::Reg(r) = op {
                self.operand_regs.push(*r);
            }
        }
        let order = self.order;
        let f = &self.f;
        let order_images = filters
            .iter()
            .filter(|fc| fc.op != FilterOp::NotEqual)
            .map(|fc| f[fc.vertex]);
        let memo = &mut self.leaf_memo;
        if memo.epoch != self.slot_epoch || !order_images.clone().eq(memo.images.iter().copied()) {
            memo.epoch = self.slot_epoch;
            memo.images.clear();
            memo.images.extend(order_images);
            let passes = |x: VertexId| passes_order_filters(order, f, x, filters);
            memo.count = match self.operand_regs.len() {
                0 => (0..self.source.num_vertices() as VertexId)
                    .filter(|&x| passes(x))
                    .count() as u64,
                1 => {
                    let slice = self.slots[self.operand_regs[0]].as_slice();
                    if memo.images.is_empty() {
                        slice.len() as u64
                    } else {
                        slice.iter().filter(|&&x| passes(x)).count() as u64
                    }
                }
                k => {
                    let slots = &self.slots;
                    let oregs = &self.operand_regs;
                    view::intersect_many_by(
                        k,
                        |i| slots[oregs[i]].as_view(),
                        &mut self.order_buf,
                        &mut self.scratch,
                        &mut self.scratch2,
                    );
                    self.scratch.iter().filter(|&&x| passes(x)).count() as u64
                }
            };
        }
        let mut count = memo.count;
        for (i, fc) in filters.iter().enumerate() {
            if fc.op != FilterOp::NotEqual {
                continue;
            }
            let y = f[fc.vertex];
            let repeated = filters[..i]
                .iter()
                .any(|p| p.op == FilterOp::NotEqual && f[p.vertex] == y);
            if !repeated
                && passes_order_filters(order, f, y, filters)
                && self
                    .operand_regs
                    .iter()
                    .all(|&r| self.slots[r].as_slice().binary_search(&y).is_ok())
            {
                count -= 1;
            }
        }
        count
    }

    fn compute_intersection(
        &mut self,
        operands: &[COperand],
        filters: &[CFilter],
        buf: &mut Vec<VertexId>,
    ) {
        buf.clear();
        if !self.pool.enabled() {
            // Baseline (pre-pool) path: materialise the operand slice
            // vector per execution — kept verbatim as the A/B baseline.
            let regs: Vec<&[VertexId]> = operands
                .iter()
                .filter_map(|op| match op {
                    COperand::Reg(r) => Some(self.slots[*r].as_slice()),
                    COperand::All => None,
                })
                .collect();
            match regs.len() {
                0 => {
                    // Pure V(G) scan with filters.
                    for x in 0..self.source.num_vertices() as VertexId {
                        if self.passes_filters(x, filters) {
                            buf.push(x);
                        }
                    }
                }
                1 => {
                    for &x in regs[0] {
                        if self.passes_filters(x, filters) {
                            buf.push(x);
                        }
                    }
                }
                _ => {
                    if filters.is_empty() {
                        let mut scratch = std::mem::take(&mut self.scratch);
                        intersect_many_into(&regs, buf, &mut scratch);
                        self.scratch = scratch;
                    } else {
                        let mut scratch = std::mem::take(&mut self.scratch);
                        let mut scratch2 = std::mem::take(&mut self.scratch2);
                        intersect_many_into(&regs, &mut scratch, &mut scratch2);
                        for &x in &scratch {
                            if self.passes_filters(x, filters) {
                                buf.push(x);
                            }
                        }
                        self.scratch = scratch;
                        self.scratch2 = scratch2;
                    }
                }
            }
            return;
        }
        // Pooled path: operand registers go into a reusable index buffer
        // and the kernels address the slot file through it, so no
        // per-execution `Vec<&[VertexId]>` exists.
        self.operand_regs.clear();
        for op in operands {
            if let COperand::Reg(r) = op {
                self.operand_regs.push(*r);
            }
        }
        match self.operand_regs.len() {
            0 => {
                // Pure V(G) scan with filters.
                let order = self.order;
                let f = &self.f;
                for x in 0..self.source.num_vertices() as VertexId {
                    if passes_filters(order, f, x, filters) {
                        buf.push(x);
                    }
                }
            }
            1 => {
                let slice = self.slots[self.operand_regs[0]].as_slice();
                let order = self.order;
                let f = &self.f;
                for &x in slice {
                    if passes_filters(order, f, x, filters) {
                        buf.push(x);
                    }
                }
            }
            k => {
                let mut scratch = std::mem::take(&mut self.scratch);
                let mut order_buf = std::mem::take(&mut self.order_buf);
                if filters.is_empty() {
                    let slots = &self.slots;
                    let oregs = &self.operand_regs;
                    view::intersect_many_by(
                        k,
                        |i| slots[oregs[i]].as_view(),
                        &mut order_buf,
                        buf,
                        &mut scratch,
                    );
                } else {
                    let mut scratch2 = std::mem::take(&mut self.scratch2);
                    {
                        let slots = &self.slots;
                        let oregs = &self.operand_regs;
                        view::intersect_many_by(
                            k,
                            |i| slots[oregs[i]].as_view(),
                            &mut order_buf,
                            &mut scratch,
                            &mut scratch2,
                        );
                    }
                    let order = self.order;
                    let f = &self.f;
                    for &x in &scratch {
                        if passes_filters(order, f, x, filters) {
                            buf.push(x);
                        }
                    }
                    self.scratch2 = scratch2;
                }
                self.scratch = scratch;
                self.order_buf = order_buf;
            }
        }
    }

    fn report(&mut self, consumer: &mut dyn MatchConsumer, metrics: &mut TaskMetrics) {
        let plan = self.plan;
        match &plan.expansion {
            None => {
                metrics.matches += 1;
                if consumer.needs_matches() {
                    consumer.on_match(&self.f);
                }
            }
            Some(info) => {
                // Label-filter the image sets of labeled non-cover
                // vertices into scratch buffers.
                let mut label_scratch = std::mem::take(&mut self.label_scratch);
                label_scratch.resize_with(info.non_cover.len(), Vec::new);
                let mut images: Vec<&[VertexId]> = Vec::with_capacity(info.image_reg.len());
                for (t, &r) in info.image_reg.iter().enumerate() {
                    let raw = self.slots[r].as_slice();
                    let u = info.non_cover[t];
                    if plan.labels[u].is_some() {
                        let buf = &mut label_scratch[t];
                        buf.clear();
                        for &x in raw {
                            if self.label_ok(u, x) {
                                buf.push(x);
                            }
                        }
                    }
                }
                for (t, &r) in info.image_reg.iter().enumerate() {
                    let u = info.non_cover[t];
                    if plan.labels[u].is_some() {
                        images.push(&label_scratch[t]);
                    } else {
                        images.push(self.slots[r].as_slice());
                    }
                }
                // Instruction-level pruning already rejects empty image
                // sets, so every emitted code encodes ≥ 0 embeddings.
                let count = expand::count_code_embeddings(info, &images, self.order);
                if count == 0 {
                    return;
                }
                metrics.codes += 1;
                metrics.matches += count;
                let helve_len = plan.num_pattern_vertices - info.non_cover.len();
                let image_entries: usize = images.iter().map(|s| s.len()).sum();
                metrics.code_bytes += (4 * (helve_len + image_entries)) as u64;
                if consumer.needs_matches() {
                    self.expand_f.copy_from_slice(&self.f);
                    expand::expand_code(info, &images, self.order, &mut self.expand_f, &mut |f| {
                        consumer.on_match(f)
                    });
                }
                drop(images);
                self.label_scratch = label_scratch;
            }
        }
    }
}

impl<S: DataSource<Error = Infallible> + ?Sized> LocalEngine<'_, S> {
    /// [`LocalEngine::try_run_task`] for a source that cannot fail.
    pub fn run_task(&mut self, task: SearchTask, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        let Ok(metrics) = self.try_run_task(task, consumer);
        metrics
    }

    /// Runs an unsplit task for every data vertex (the sequential version
    /// of Algorithm 2's parallel loop).
    pub fn run_all_vertices(&mut self, consumer: &mut dyn MatchConsumer) -> TaskMetrics {
        let mut total = TaskMetrics::default();
        for v in 0..self.source.num_vertices() as VertexId {
            total += self.run_task(SearchTask::whole(v), consumer);
        }
        total
    }
}

/// Locates the count-only leaf of an uncompressed plan ending
/// `Foreach → Report`: returns the pc of that terminal `Foreach` and,
/// when the loop runs over the `Intersect` just before it, takes every
/// candidate (no label) and is not the split point, the pc of that
/// `Intersect`.
fn count_leaf_shape(plan: &CompiledPlan) -> (Option<usize>, Option<usize>) {
    let n = plan.instrs.len();
    if plan.expansion.is_some() || n < 3 || !matches!(plan.instrs[n - 1], CInstr::Report) {
        return (None, None);
    }
    let fpc = n - 2;
    let CInstr::Foreach {
        vertex,
        source,
        is_second,
    } = &plan.instrs[fpc]
    else {
        return (None, None);
    };
    let leaf = match &plan.instrs[fpc - 1] {
        CInstr::Intersect { target, .. }
            if target == source && plan.labels[*vertex].is_none() && !is_second =>
        {
            Some(fpc - 1)
        }
        _ => None,
    };
    (Some(fpc), leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledPlan;
    use crate::consumer::{CollectingConsumer, CountingConsumer};
    use crate::source::InMemorySource;
    use benu_graph::{gen, Graph};
    use benu_pattern::queries;
    use benu_plan::PlanBuilder;

    fn count(pattern: &benu_pattern::Pattern, g: &Graph) -> u64 {
        let plan = PlanBuilder::new(pattern).best_plan();
        crate::count_embeddings(&plan, g)
    }

    #[test]
    fn triangles_in_k5() {
        assert_eq!(count(&queries::triangle(), &gen::complete(5)), 10);
    }

    #[test]
    fn k4_in_k6() {
        assert_eq!(count(&queries::clique(4), &gen::complete(6)), 15); // C(6,4)
    }

    #[test]
    fn squares_in_k4() {
        // K4 contains 3 distinct 4-cycles.
        assert_eq!(count(&queries::square(), &gen::complete(4)), 3);
    }

    #[test]
    fn cycle5_in_c5_is_unique() {
        assert_eq!(count(&queries::q5(), &gen::cycle(5)), 1);
    }

    #[test]
    fn no_triangles_in_bipartite_grid() {
        assert_eq!(count(&queries::triangle(), &gen::grid(4, 4)), 0);
    }

    #[test]
    fn demo_pattern_is_found_in_demo_graph() {
        let g = Graph::from_edges(queries::demo_data_edges());
        let p = queries::demo_pattern();
        let n = count(&p, &g);
        assert!(n >= 1, "the paper's f' match must be found");
    }

    #[test]
    fn compressed_and_uncompressed_counts_agree() {
        let g = gen::erdos_renyi_gnm(60, 250, 3);
        for (name, p) in queries::catalogue() {
            let plain = PlanBuilder::new(&p).best_plan();
            let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
            assert_eq!(
                crate::count_embeddings(&plain, &g),
                crate::count_embeddings(&compressed, &g),
                "{name}: VCBC changed the embedding count"
            );
        }
    }

    #[test]
    fn compressed_expansion_yields_same_match_set() {
        let g = gen::erdos_renyi_gnm(40, 140, 8);
        let p = queries::q1();
        let plain = PlanBuilder::new(&p).best_plan();
        let compressed = PlanBuilder::new(&p).compressed(true).best_plan();
        assert_eq!(
            crate::collect_embeddings(&plain, &g),
            crate::collect_embeddings(&compressed, &g)
        );
    }

    #[test]
    fn split_tasks_partition_the_work() {
        let g = gen::barabasi_albert(120, 4, 5);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);

        // Whole-graph count via unsplit tasks.
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        let whole = engine.run_all_vertices(&mut c).matches;

        // Same count via split tasks with τ = 5.
        let tasks = crate::task::generate_tasks(&g, 5, compiled.second_adjacent);
        assert!(tasks.len() > g.num_vertices(), "hubs actually split");
        let mut split_total = 0u64;
        for t in tasks {
            split_total += engine.run_task(t, &mut c).matches;
        }
        assert_eq!(whole, split_total);
    }

    #[test]
    fn metrics_count_instruction_executions() {
        let g = gen::complete(4);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p)
            .optimizations(benu_plan::optimize::OptimizeOptions::none())
            .matching_order(vec![0, 1, 2])
            .build();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        let m = engine.run_all_vertices(&mut c);
        assert_eq!(m.matches, 4); // 4 triangles in K4
        assert!(m.dbq_executions > 0);
        assert!(m.int_executions > 0);
        assert!(
            m.enu_candidates >= m.matches,
            "every match consumed at least one ENU candidate"
        );
    }

    #[test]
    fn metrics_record_into_registry_counters() {
        let g = gen::complete(5);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        let m = engine.run_all_vertices(&mut c);
        let registry = benu_obs::Registry::new();
        m.record_into(&registry);
        assert_eq!(registry.counter("engine.matches").get(), m.matches);
        assert_eq!(
            registry.counter("engine.dbq_executions").get(),
            m.dbq_executions
        );
        assert_eq!(
            registry.counter("engine.enu_candidates").get(),
            m.enu_candidates
        );
    }

    #[test]
    fn triangle_cache_hits_across_tasks() {
        let g = gen::complete(8);
        // The demo pattern's plan nests TCache(f1, f5) inside the loop
        // over f3, so the same (f1, f5) key recurs across branches — the
        // intra-task reuse Optimization 3 exists for.
        let p = queries::demo_pattern();
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        let compiled = CompiledPlan::compile(&plan);
        assert!(
            compiled
                .kind_counts()
                .contains_key(&benu_plan::ir::InstrKind::Trc),
            "the demo plan uses the triangle cache"
        );
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        engine.run_all_vertices(&mut c);
        assert!(engine.triangle_cache_stats().hits > 0);
    }

    #[test]
    fn clique_cache_extension_preserves_counts() {
        use benu_plan::optimize::OptimizeOptions;
        let g = gen::chung_lu_power_law(benu_graph::gen::PowerLawConfig {
            n: 60,
            m: 260,
            gamma: 2.3,
            clustering: 0.5,
            seed: 41,
        });
        for (name, p) in [
            ("clique4", queries::clique(4)),
            ("clique5", queries::clique(5)),
            ("q2", queries::q2()),
            ("q4", queries::q4()),
            ("q9", queries::q9()),
        ] {
            let base = PlanBuilder::new(&p).best_plan();
            let expected = crate::count_embeddings(&base, &g);
            let extended = PlanBuilder::new(&p)
                .matching_order(base.matching_order.clone())
                .optimizations(OptimizeOptions::all_with_clique_cache())
                .build();
            assert_eq!(
                crate::count_embeddings(&extended, &g),
                expected,
                "{name}: clique cache changed the count"
            );
        }
    }

    #[test]
    fn clique_cache_stats_reported() {
        use benu_plan::optimize::OptimizeOptions;
        let g = gen::complete(10);
        let p = queries::clique(5);
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 1, 2, 3, 4])
            .optimizations(OptimizeOptions::all_with_clique_cache())
            .build();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        let m = engine.run_all_vertices(&mut c);
        assert_eq!(m.matches, 252); // C(10,5)
        let stats = engine.clique_cache_stats();
        assert!(stats.misses > 0, "KCache instructions executed");
    }

    #[test]
    fn collecting_consumer_sees_expanded_matches() {
        let g = gen::complete(5);
        let p = queries::triangle();
        let plan = PlanBuilder::new(&p).compressed(true).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CollectingConsumer::default();
        let m = engine.run_all_vertices(&mut c);
        assert_eq!(m.matches, 10);
        assert_eq!(c.matches().len(), 10);
        assert!(m.codes > 0 && m.codes <= 10, "codes compress the output");
        for matched in c.matches() {
            // Every reported triple really is a triangle.
            assert!(g.has_edge(matched[0], matched[1]));
            assert!(g.has_edge(matched[1], matched[2]));
            assert!(g.has_edge(matched[0], matched[2]));
        }
    }

    #[test]
    fn pooled_buffers_are_reused_across_tasks() {
        let g = gen::erdos_renyi_gnm(60, 250, 3);
        let p = queries::q5();
        let plan = PlanBuilder::new(&p).best_plan();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        engine.run_all_vertices(&mut c);
        let warm = engine.pool_stats();
        assert!(
            warm.hits > 0,
            "buffers must cycle through the pool: {warm:?}"
        );
        assert!(warm.returns > 0, "task boundaries return buffers: {warm:?}");
        // Steady state: a second pass over the same tasks allocates no new
        // buffers — every take is a pool hit.
        engine.run_all_vertices(&mut c);
        let steady = engine.pool_stats();
        assert_eq!(
            steady.misses, warm.misses,
            "steady-state takes must all be pool hits"
        );
        assert!(steady.hits > warm.hits);
    }

    #[test]
    fn pooled_and_unpooled_runs_are_byte_identical() {
        let g = gen::erdos_renyi_gnm(50, 200, 7);
        let mut plans = vec![
            ("q5", PlanBuilder::new(&queries::q5()).best_plan()),
            (
                "triangle/compressed",
                PlanBuilder::new(&queries::triangle())
                    .compressed(true)
                    .best_plan(),
            ),
        ];
        {
            use benu_plan::optimize::OptimizeOptions;
            let p = queries::clique(4);
            let base = PlanBuilder::new(&p).best_plan();
            plans.push((
                "clique4/kcache",
                PlanBuilder::new(&p)
                    .matching_order(base.matching_order.clone())
                    .optimizations(OptimizeOptions::all_with_clique_cache())
                    .build(),
            ));
        }
        for (name, plan) in plans {
            let compiled = CompiledPlan::compile(&plan);
            let source = InMemorySource::from_graph(&g);
            let order = benu_graph::TotalOrder::new(&g);

            let mut pooled = LocalEngine::new(&compiled, &source, &order).with_pooling(true);
            let mut cp = CollectingConsumer::default();
            let mp = pooled.run_all_vertices(&mut cp);

            let mut unpooled = LocalEngine::new(&compiled, &source, &order).with_pooling(false);
            let mut cu = CollectingConsumer::default();
            let mu = unpooled.run_all_vertices(&mut cu);

            assert_eq!(mp, mu, "{name}: metrics diverge pooled vs unpooled");
            let mut ep = cp.into_matches();
            let mut eu = cu.into_matches();
            ep.sort_unstable();
            eu.sort_unstable();
            assert_eq!(ep, eu, "{name}: embeddings diverge pooled vs unpooled");
            assert_eq!(
                unpooled.pool_stats(),
                PoolStats::default(),
                "{name}: unpooled engine must never touch the pool"
            );
        }
    }

    #[test]
    fn block_kernels_engage_on_dense_graphs_and_stay_byte_identical() {
        // Hub degrees far past DENSE_BLOCK_THRESHOLD, so the pooled
        // engine's intersections actually cross the slice×bitset and
        // bitset×bitset kernels while the unpooled baseline stays on the
        // scalar merge — the representation crossing must be invisible.
        let g = gen::barabasi_albert(120, 20, 17);
        let source = InMemorySource::from_graph(&g);
        let dense = (0..g.num_vertices() as VertexId)
            .filter(|&v| source.get_adj(v).unwrap().has_blocks())
            .count();
        assert!(dense > 0, "no vertex reached the block threshold");
        for (name, plan) in [
            (
                "triangle",
                PlanBuilder::new(&queries::triangle()).best_plan(),
            ),
            ("clique4", PlanBuilder::new(&queries::clique(4)).best_plan()),
        ] {
            let compiled = CompiledPlan::compile(&plan);
            let order = benu_graph::TotalOrder::new(&g);
            let mut pooled = LocalEngine::new(&compiled, &source, &order).with_pooling(true);
            let mut cp = CollectingConsumer::default();
            let mp = pooled.run_all_vertices(&mut cp);
            let mut unpooled = LocalEngine::new(&compiled, &source, &order).with_pooling(false);
            let mut cu = CollectingConsumer::default();
            let mu = unpooled.run_all_vertices(&mut cu);
            assert_eq!(mp, mu, "{name}: metrics diverge across kernels");
            let mut ep = cp.into_matches();
            let mut eu = cu.into_matches();
            ep.sort_unstable();
            eu.sort_unstable();
            assert_eq!(ep, eu, "{name}: block kernels changed the match set");
        }
    }

    #[test]
    fn kcache_has_its_own_counter() {
        use benu_plan::optimize::OptimizeOptions;
        let g = gen::complete(10);
        let p = queries::clique(5);
        let plan = PlanBuilder::new(&p)
            .matching_order(vec![0, 1, 2, 3, 4])
            .optimizations(OptimizeOptions::all_with_clique_cache())
            .build();
        let compiled = CompiledPlan::compile(&plan);
        let source = InMemorySource::from_graph(&g);
        let order = benu_graph::TotalOrder::new(&g);
        let mut engine = LocalEngine::new(&compiled, &source, &order);
        let mut c = CountingConsumer;
        let m = engine.run_all_vertices(&mut c);
        assert!(
            m.kcache_executions > 0,
            "clique-cached plan must count KCache executions"
        );

        // A plan with no clique cache must leave the counter at zero even
        // when the triangle cache is busy (the misattribution this fixes).
        let plan2 = PlanBuilder::new(&queries::demo_pattern())
            .matching_order(vec![0, 2, 4, 1, 5, 3])
            .build();
        let compiled2 = CompiledPlan::compile(&plan2);
        let g2 = gen::complete(8);
        let source2 = InMemorySource::from_graph(&g2);
        let order2 = benu_graph::TotalOrder::new(&g2);
        let mut engine2 = LocalEngine::new(&compiled2, &source2, &order2);
        let m2 = engine2.run_all_vertices(&mut c);
        assert!(m2.trc_executions > 0);
        assert_eq!(m2.kcache_executions, 0);

        let registry = benu_obs::Registry::new();
        m.record_into(&registry);
        assert_eq!(
            registry.counter("engine.kcache_executions").get(),
            m.kcache_executions
        );
        assert_eq!(
            registry.counter("engine.trc_executions").get(),
            m.trc_executions
        );
    }
}
