//! An in-process replica of one `pdgc serve` session, rebuilt from the
//! public layer functions of `pdgc-core` so that each layer call can be
//! timed as a span.
//!
//! The replica must compute exactly what the daemon computes: the same
//! request parsing and cache key, the same LRU cache with sampled hit
//! re-checks, and the same allocation pipeline round for round. The
//! traced run proves that on every op by comparing its fingerprint (and
//! cache outcome) with the real daemon's response to the same request.

use pdgc_bench::serve::{cache_key, key_hash};
use pdgc_bench::{fingerprint_mach, stats_json};
use pdgc_core::baselines::{
    BriggsAllocator, CallCostAllocator, ChaitinAllocator, IteratedAllocator, OptimisticAllocator,
    PriorityAllocator,
};
use pdgc_core::cpg::Cpg;
use pdgc_core::lower::lower_abi;
use pdgc_core::pipeline::{
    analyze_in, check_output_metered, class_ctx_for_round_in, recycle_class_ctx, AllocOutput,
    Analyses, ClassCtx, ClassStrategy, RoundOutcome, MAX_ROUNDS,
};
use pdgc_core::rewrite::rewrite_in;
use pdgc_core::rpg::build_rpg;
use pdgc_core::select::{select_traced_in, SelectConfig, SelectResult};
use pdgc_core::simplify::{simplify_in, SimplifyMode};
use pdgc_core::spill::{insert_spill_code_fwd, SPL_FORWARD_MAX_ROUNDS};
use pdgc_core::{
    AllocStats, CheckMode, CheckScope, PhaseScratch, PreferenceAllocator, PreferenceSet,
};
use pdgc_ir::{parse_function, Function, RegClass, VReg};
use pdgc_obs::json::{Json, JsonObject};
use pdgc_obs::{Counter, NoopTracer};
use pdgc_target::{TargetDesc, TargetRegistry};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The layers a span can belong to. `Op` is the root span of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Op,
    Request,
    IrParse,
    Lower,
    Analyze,
    Build,
    Color,
    Rpg,
    Simplify,
    Cpg,
    Select,
    Spill,
    Rewrite,
    Check,
    Respond,
    Print,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 16] = [
        Layer::Op,
        Layer::Request,
        Layer::IrParse,
        Layer::Lower,
        Layer::Analyze,
        Layer::Build,
        Layer::Color,
        Layer::Rpg,
        Layer::Simplify,
        Layer::Cpg,
        Layer::Select,
        Layer::Spill,
        Layer::Rewrite,
        Layer::Check,
        Layer::Respond,
        Layer::Print,
    ];

    /// The layer's metric-name prefix, after the module it times.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Request => "serve.request",
            Layer::IrParse => "ir.parse",
            Layer::Lower => "core.lower",
            Layer::Analyze => "core.analyze",
            Layer::Build => "core.build",
            Layer::Color => "core.color",
            Layer::Rpg => "core.rpg",
            Layer::Simplify => "core.simplify",
            Layer::Cpg => "core.cpg",
            Layer::Select => "core.select",
            Layer::Spill => "core.spill",
            Layer::Rewrite => "core.rewrite",
            Layer::Check => "check",
            Layer::Respond => "serve.respond",
            Layer::Print => "target.print",
        }
    }
}

/// One timed layer call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The op (request) the span belongs to.
    pub op: u32,
    /// The layer it timed.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Records spans in memory; one clock (`Instant`) for every layer.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// The op new spans belong to.
    pub op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` inside the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            layer,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let idx = self.stack.pop().expect("close matches an open") as usize;
        self.spans[idx].end_ns = self.now();
    }

    /// Times `f` as a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open(layer);
        let out = f();
        self.close();
        out
    }
}

/// Work done by the layers, summed over ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub parse_bytes: u64,
    pub rounds: u64,
    pub spl_fast: u64,
    pub nodes: u64,
    pub ifg_edges: u64,
    pub prefs: u64,
    pub simplified: u64,
    pub optimistic: u64,
    pub cpg_edges: u64,
    pub selected: u64,
    pub select_spills: u64,
    pub spilled_vregs: u64,
    pub reload_sites: u64,
    pub forwarded: u64,
    pub paired_candidates: u64,
    pub paired_fused: u64,
    pub mach_insts: u64,
    pub hits: u64,
    pub evictions: u64,
    pub rechecks: u64,
}

/// How one allocator's class strategy is replayed: `Staged` rebuilds the
/// preference-directed allocator from its layers (RPG, simplify, CPG,
/// select); `Whole` calls a strategy's `allocate_class` as one span.
enum Strategy {
    Staged(PreferenceSet),
    Whole(Box<dyn ClassStrategy>),
}

fn strategy(name: &str) -> Option<Strategy> {
    Some(match name {
        "full" => Strategy::Staged(PreferenceSet::full()),
        "coalesce" => Strategy::Staged(PreferenceSet::coalescing_only()),
        "precoalesce" => Strategy::Whole(Box::new(PreferenceAllocator::full().with_precoalesce())),
        "chaitin" => Strategy::Whole(Box::new(ChaitinAllocator)),
        "briggs" => Strategy::Whole(Box::new(BriggsAllocator)),
        "iterated" => Strategy::Whole(Box::new(IteratedAllocator)),
        "optimistic" => Strategy::Whole(Box::new(OptimisticAllocator)),
        "callcost" => Strategy::Whole(Box::new(CallCostAllocator)),
        "priority" => Strategy::Whole(Box::new(PriorityAllocator)),
        _ => return None,
    })
}

/// The preference-directed allocator's class step, layer by layer: what
/// `PreferenceAllocator::allocate_class` does without pre-coalescing.
fn staged_class(
    t: &mut Tracer,
    counts: &mut Counts,
    ctx: &mut ClassCtx<'_>,
    analyses: &Analyses,
    target: &TargetDesc,
    prefs: PreferenceSet,
) -> RoundOutcome {
    let round = ctx.round as u32;
    let mut cls = std::mem::take(&mut ctx.scratch);
    let cost = ctx.cost_model(analyses);
    let rpg = t.span(Layer::Rpg, || {
        build_rpg(ctx.func, &ctx.nodes, &cost, &ctx.copies, prefs, target)
    });
    let costs = ctx.spill_costs.clone();
    let sr = t.span(Layer::Simplify, || {
        let sr = simplify_in(
            &mut ctx.ifg,
            ctx.k,
            &costs,
            SimplifyMode::Optimistic,
            &mut cls.simplify,
        );
        ctx.ifg.restore_all();
        sr
    });
    let cpg = t.span(Layer::Cpg, || {
        Cpg::build_in(&ctx.ifg, &sr.stack, &sr.optimistic, ctx.k, &mut cls.cpg)
    });
    counts.prefs += rpg.num_edges() as u64;
    counts.simplified += sr.stack.len() as u64;
    counts.optimistic += sr.optimistic.len() as u64;
    sr.recycle(&mut cls.simplify);
    let config = SelectConfig {
        active_spill: prefs.volatility,
        nonvolatile_first: !prefs.volatility,
    };
    let res = t.span(Layer::Select, || {
        select_traced_in(
            &ctx.ifg,
            &ctx.nodes,
            &rpg,
            &cpg,
            target,
            &ctx.no_spill,
            &ctx.spill_costs,
            config,
            round,
            &mut NoopTracer,
            &mut cls.select,
        )
    });
    for n in cpg.nodes() {
        counts.selected += 1;
        counts.cpg_edges += cpg.succs(n).len() as u64;
    }
    counts.select_spills += res.spilled.len() as u64;
    cpg.recycle(&mut cls.cpg);
    ctx.scratch = cls;
    RoundOutcome {
        assignment: res.assignment,
        spilled: res.spilled,
    }
}

/// The allocation pipeline, round for round as
/// `pdgc_core::pipeline::run_pipeline_scratch` runs it.
fn allocate(
    t: &mut Tracer,
    counts: &mut Counts,
    func: &Function,
    target: &TargetDesc,
    strategy: &Strategy,
    scratch: &mut PhaseScratch,
) -> Result<AllocOutput, String> {
    let mut lowered = t
        .span(Layer::Lower, || lower_abi(func, target))
        .map_err(|e| e.to_string())?;
    let mut no_spill_vregs = scratch.flags.take_filled(lowered.func.num_vregs(), false);
    let mut slots = 0u32;
    let mut stats = AllocStats::default();
    for round in 1..=MAX_ROUNDS {
        let analyses = t.span(Layer::Analyze, || {
            analyze_in(&lowered.func, &mut scratch.liveness)
        });
        counts.rounds += 1;
        counts.spl_fast += u64::from(analyses.spl.is_spl());
        let mut assignment = scratch
            .assignments
            .take_filled(lowered.func.num_vregs(), None);
        let mut spilled_vregs: Vec<VReg> = scratch.vregs.take();
        for class in RegClass::ALL {
            let mut ctx = t.span(Layer::Build, || {
                class_ctx_for_round_in(
                    &lowered,
                    target,
                    class,
                    &analyses,
                    &no_spill_vregs,
                    round,
                    scratch,
                )
            });
            counts.nodes += ctx.nodes.num_nodes() as u64;
            counts.ifg_edges += ctx
                .nodes
                .all_nodes()
                .map(|n| ctx.ifg.neighbors_slice(n).len() as u64)
                .sum::<u64>()
                / 2;
            t.open(Layer::Color);
            let outcome = match strategy {
                Strategy::Staged(prefs) => {
                    staged_class(t, counts, &mut ctx, &analyses, target, *prefs)
                }
                Strategy::Whole(s) => {
                    s.allocate_class(&mut ctx, &analyses, target, &mut NoopTracer)
                }
            };
            t.close();
            for n in ctx.nodes.all_nodes() {
                if let Some(r) = outcome.assignment[n.index()] {
                    for &v in ctx.nodes.members(n) {
                        assignment[v.index()] = Some(r);
                    }
                }
            }
            for &n in &outcome.spilled {
                spilled_vregs.extend_from_slice(ctx.nodes.members(n));
            }
            recycle_class_ctx(ctx, scratch);
            SelectResult {
                assignment: outcome.assignment,
                spilled: outcome.spilled,
            }
            .recycle(&mut scratch.class.select);
            scratch
                .class
                .select
                .metrics
                .drain_into(&mut scratch.metrics);
        }
        let mut seen = scratch.flags.take_filled(lowered.func.num_vregs(), false);
        spilled_vregs.retain(|v| !std::mem::replace(&mut seen[v.index()], true));
        scratch.flags.put(seen);

        if spilled_vregs.is_empty() {
            analyses.recycle(&mut scratch.liveness);
            scratch.vregs.put(spilled_vregs);
            stats.rounds = round;
            let mach = t.span(Layer::Rewrite, || {
                rewrite_in(
                    &lowered.func,
                    &assignment,
                    target,
                    slots,
                    &mut stats,
                    scratch,
                )
            });
            counts.paired_candidates += stats.paired_candidates as u64;
            counts.paired_fused += stats.paired_loads as u64;
            scratch.flags.put(no_spill_vregs);
            return Ok(AllocOutput {
                mach,
                stats,
                lowered: lowered.func,
                assignment,
            });
        }

        scratch.assignments.put(assignment);
        let fwd = (round <= SPL_FORWARD_MAX_ROUNDS).then_some(&analyses.spl);
        let outcome = t.span(Layer::Spill, || {
            insert_spill_code_fwd(&mut lowered.func, &spilled_vregs, &mut slots, fwd)
        });
        counts.spilled_vregs += spilled_vregs.len() as u64;
        counts.reload_sites += (outcome.loads + outcome.forwarded) as u64;
        counts.forwarded += outcome.forwarded as u64;
        analyses.recycle(&mut scratch.liveness);
        scratch.vregs.put(spilled_vregs);
        lowered.sync_pinned_len();
        no_spill_vregs.resize(lowered.func.num_vregs(), false);
        for v in outcome.new_temps {
            no_spill_vregs[v.index()] = true;
        }
    }
    scratch.flags.put(no_spill_vregs);
    Err(format!("allocation of {} did not converge", func.name))
}

/// One cached allocation, as the daemon keeps it.
struct Entry {
    out: AllocOutput,
    target: TargetDesc,
    mach_text: String,
    stats: String,
    fingerprint: u64,
    last_used: u64,
}

/// What one replayed request produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handled {
    /// Fingerprint of the machine code in the response.
    pub fingerprint: u64,
    /// Served from the cache.
    pub cached: bool,
    /// Proven by the checker while answering.
    pub checked: bool,
}

/// The replica of one serve session: the daemon's defaults except the
/// cache cap, as the benchmark starts it.
pub struct Replica {
    target: String,
    cache_cap: usize,
    sample_rate: u64,
    cache: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    scratch: PhaseScratch,
    /// Work counts over every op since the last reset.
    pub counts: Counts,
}

impl Replica {
    /// A session for `target` with the daemon's default sample rate.
    pub fn new(target: &str, cache_cap: usize) -> Replica {
        Replica {
            target: target.to_string(),
            cache_cap,
            sample_rate: 16,
            cache: HashMap::new(),
            tick: 0,
            hits: 0,
            scratch: PhaseScratch::new(),
            counts: Counts::default(),
        }
    }

    /// Answers one request line, recording its spans in `t` under one
    /// root `op` span.
    ///
    /// # Errors
    ///
    /// A message when the request is invalid or allocation fails.
    pub fn handle(&mut self, t: &mut Tracer, line: &str) -> Result<Handled, String> {
        t.open(Layer::Op);
        let out = self.handle_op(t, line);
        t.close();
        out
    }

    fn handle_op(&mut self, t: &mut Tracer, line: &str) -> Result<Handled, String> {
        self.tick += 1;
        let counts = &mut self.counts;
        t.open(Layer::Request);
        let request = (|| {
            let json = Json::parse(line)?;
            let ir = json["fn"].as_str().ok_or("request missing `fn`")?;
            counts.parse_bytes += ir.len() as u64;
            let func = t.span(Layer::IrParse, || {
                let func = parse_function(ir).map_err(|e| e.to_string())?;
                func.verify().map_err(|e| e.to_string())?;
                Ok::<_, String>(func)
            })?;
            let target_name = json["target"].as_str().unwrap_or(&self.target);
            let alloc_name = json["allocator"].as_str().unwrap_or("full");
            let strategy = strategy(alloc_name).ok_or(format!("unknown allocator {alloc_name}"))?;
            let target = TargetRegistry::builtin()
                .resolve(target_name)
                .cloned()
                .map_err(|e| e.to_string())?;
            let key = cache_key(&func, target_name, alloc_name, CheckMode::Off);
            let hash = format!("{:016x}", key_hash(&key));
            Ok::<_, String>((func, strategy, target, key, hash))
        })();
        t.close();
        let (func, strategy, target, key, hash) = request?;

        if let Some(entry) = self.cache.get_mut(&key) {
            self.hits += 1;
            counts.hits += 1;
            let recheck = self.hits.is_multiple_of(self.sample_rate);
            if recheck {
                counts.rechecks += 1;
                let verdict = t.span(Layer::Check, || {
                    check_output_metered(
                        &entry.out,
                        &entry.target,
                        &mut NoopTracer,
                        CheckMode::Always,
                        CheckScope::Full,
                        &mut self.scratch,
                    )
                });
                verdict.map_err(|e| e.to_string())?;
            }
            entry.last_used = self.tick;
            t.span(Layer::Respond, || {
                black_box(render(&hash, true, recheck, entry))
            });
            return Ok(Handled {
                fingerprint: entry.fingerprint,
                cached: true,
                checked: recheck,
            });
        }

        let out = allocate(t, counts, &func, &target, &strategy, &mut self.scratch)?;
        let before = self.scratch.metrics.get(Counter::CheckMachInsts);
        let verdict = t.span(Layer::Check, || {
            check_output_metered(
                &out,
                &target,
                &mut NoopTracer,
                CheckMode::Always,
                CheckScope::Full,
                &mut self.scratch,
            )
        });
        verdict.map_err(|e| e.to_string())?;
        counts.mach_insts += self.scratch.metrics.get(Counter::CheckMachInsts) - before;

        t.open(Layer::Respond);
        if self.cache_cap > 0 && self.cache.len() >= self.cache_cap {
            if let Some(victim) = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                let dead = self.cache.remove(&victim).expect("key from iteration");
                dead.out.recycle(&mut self.scratch);
                counts.evictions += 1;
            }
        }
        let (mach_text, fingerprint) = t.span(Layer::Print, || {
            (out.mach.to_string(), fingerprint_mach(&out.mach))
        });
        let entry = Entry {
            stats: stats_json(&out.stats),
            mach_text,
            fingerprint,
            last_used: self.tick,
            out,
            target,
        };
        black_box(render(&hash, false, true, &entry));
        self.cache.insert(key, entry);
        t.close();
        Ok(Handled {
            fingerprint,
            cached: false,
            checked: true,
        })
    }
}

/// The daemon's success response for a cache entry.
fn render(hash: &str, cached: bool, checked: bool, e: &Entry) -> String {
    JsonObject::new()
        .bool("ok", true)
        .str("key", hash)
        .bool("cached", cached)
        .bool("checked", checked)
        .str("fingerprint", &format!("{:016x}", e.fingerprint))
        .raw("stats", &e.stats)
        .str("mach", &e.mach_text)
        .finish()
}
