#include "src/core/cat/cat_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>

#include "src/model/gamma.hpp"
#include "src/util/error.hpp"
#include "src/util/timer.hpp"

namespace miniphi::core {
namespace {

constexpr int kS = kCatSiteBlock;

/// Eigenspace tip vector for a DNA code: tv[k] = Σ_{j∈code} W(k,j).
void tip_vector(const model::GtrModel& model, int code, double out[kS]) {
  const auto& w = model.eigen_w();
  const int effective = (code == 0) ? 0xF : code;
  for (int k = 0; k < kS; ++k) {
    double acc = 0.0;
    for (int j = 0; j < kS; ++j) {
      if (effective & (1 << j)) acc += w[static_cast<std::size_t>(k * kS + j)];
    }
    out[k] = acc;
  }
}

}  // namespace

CatEngine::CatEngine(const bio::PatternSet& patterns, const model::GtrModel& model,
                     tree::Tree& tree, int categories, const Config& config)
    : patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_cat_kernel_ops(config.isa)),
      tuning_(config.tuning) {
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  MINIPHI_CHECK(npat > 0, "cat engine: empty pattern set");
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "cat engine: tree and patterns disagree on taxon count");
  MINIPHI_CHECK(categories >= 1 && categories <= kMaxCatCategories,
                "cat engine: category count out of range");
  offset_ = config.begin;
  length_ = (config.end < 0 ? npat : config.end) - offset_;
  MINIPHI_CHECK(offset_ >= 0 && length_ > 0 && offset_ + length_ <= npat,
                "cat engine: invalid pattern slice");
  sdc_checks_ = config.sdc_checks;
  if (obs::kMetricsCompiled && config.metrics == obs::MetricsMode::kOn) {
    metrics_ = true;
    metric_ids_ = register_engine_metrics(ops_.isa, "cat");
    plan_cache_.enable_metrics();
    sdc_ids_ = sdc::register_metrics();
  }

  const int inner_count = tree.inner_count();
  int budget = (config.cla_buffers < 0) ? inner_count : config.cla_buffers;
  if (config.cla_buffers < 0 && config.cla_budget_bytes > 0) {
    // Byte-denominated budget (the C-API resource negotiation speaks bytes):
    // derive the buffer count from this slice's per-buffer footprint.
    const std::int64_t bytes_per_buffer = cla_buffer_bytes(length_, kS);
    budget = static_cast<int>(
        std::min<std::int64_t>(inner_count, config.cla_budget_bytes / bytes_per_buffer));
    MINIPHI_CHECK(budget >= min_working_set_buffers(inner_count),
                  "cat engine: cla_budget_bytes cannot fit the minimum working set (" +
                      std::to_string(min_working_set_buffers(inner_count)) + " CLA buffers of " +
                      std::to_string(bytes_per_buffer) + " bytes each)");
  }
  budget = std::min(budget, inner_count);
  MINIPHI_CHECK(budget >= min_working_set_buffers(inner_count),
                "cat engine: cla_buffers budget must be at least 3 (got " +
                    std::to_string(budget) + ")");
  clas_.resize(static_cast<std::size_t>(inner_count));
  for (int i = 0; i < inner_count; ++i) clas_[static_cast<std::size_t>(i)].slot = i;
  cla_spill_dir_ = config.cla_spill_dir;

  // Tiered CLA storage (DESIGN.md §14), shared with the dense engine: the
  // store owns the resident pool, the pin table, the monotonic LRU epoch,
  // and the recompute-vs-spill policy.  A dropped CLA is marked invalid so
  // the next traversal recomputes it.
  memory::ClaStoreConfig store_config;
  store_config.slots = inner_count;
  store_config.resident = budget;
  store_config.values = length_ * kS;
  store_config.scales = length_;
  store_config.spill = config.cla_spill;
  store_config.spill_dir = config.cla_spill_dir;
  store_config.spill_min_registers = config.cla_spill_min_registers;
  store_config.node_id_base = tree.taxon_count();
  store_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
  store_config.on_drop = [this](int slot) {
    clas_[static_cast<std::size_t>(slot)].valid = false;
    plan_cache_.note_cla_state_changed();
  };
  store_.configure(std::move(store_config));
  ptable_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16);
  ptable_right_.resize(ptable_left_.size());
  ump_left_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  ump_right_.resize(ump_left_.size());
  diag_.resize(static_cast<std::size_t>(kMaxCatCategories) * kS);
  evtab_.resize(static_cast<std::size_t>(kMaxCatCategories) * 16 * kS);
  dtab_.resize(3 * static_cast<std::size_t>(kMaxCatCategories) * kS);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * kS);
  tipvec_.resize(16 * kS);
  wtable_.resize(16);

  // Branch-independent tables.
  const auto& w = model_.eigen_w();
  for (int i = 0; i < kS; ++i) {
    for (int k = 0; k < kS; ++k) {
      wtable_[static_cast<std::size_t>(i * kS + k)] = w[static_cast<std::size_t>(k * kS + i)];
    }
  }
  for (int code = 0; code < 16; ++code) {
    tip_vector(model_, code, tipvec_.data() + code * kS);
  }

  // Initial categories: the discrete-Γ(α=0.5) grid gives a well-spread,
  // unit-mean starting set; every site starts in the category closest to 1.
  std::vector<double> rates = model::discrete_gamma_rates(0.5, categories);
  std::uint8_t middle = 0;
  for (std::size_t c = 1; c < rates.size(); ++c) {
    if (std::abs(rates[c] - 1.0) < std::abs(rates[middle] - 1.0)) {
      middle = static_cast<std::uint8_t>(c);
    }
  }
  set_categories(std::move(rates),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(length_), middle));
}

void CatEngine::set_categories(std::vector<double> rates,
                               std::vector<std::uint8_t> assignment) {
  MINIPHI_CHECK(!rates.empty() && rates.size() <= kMaxCatCategories,
                "cat engine: bad category count");
  for (const double rate : rates) {
    MINIPHI_CHECK(rate > 0.0, "cat engine: category rates must be positive");
  }
  MINIPHI_CHECK(assignment.size() == static_cast<std::size_t>(length_),
                "cat engine: assignment size mismatch");
  for (const auto category : assignment) {
    MINIPHI_CHECK(category < rates.size(), "cat engine: assignment references bad category");
  }
  category_rates_ = std::move(rates);
  site_categories_ = std::move(assignment);
  invalidate_all();
}

void CatEngine::build_ptable(double z, std::span<double> out) const {
  const auto& u = model_.eigen_u();
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      const double e = std::exp(lambda[static_cast<std::size_t>(k)] * category_rates_[cat] * z);
      for (int i = 0; i < kS; ++i) {
        out[cat * 16 + static_cast<std::size_t>(k * kS + i)] =
            u[static_cast<std::size_t>(i * kS + k)] * e;
      }
    }
  }
}

void CatEngine::build_ump(std::span<const double> ptable, std::span<double> out) const {
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int code = 0; code < 16; ++code) {
      const double* tv = tipvec_.data() + code * kS;
      double* row = out.data() + (cat * 16 + static_cast<std::size_t>(code)) * kS;
      for (int i = 0; i < kS; ++i) {
        double acc = 0.0;
        for (int k = 0; k < kS; ++k) {
          acc += ptable[cat * 16 + static_cast<std::size_t>(k * kS + i)] * tv[k];
        }
        row[i] = acc;
      }
    }
  }
}

void CatEngine::build_diag(double z, std::span<double> out) const {
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      out[cat * kS + static_cast<std::size_t>(k)] =
          std::exp(lambda[static_cast<std::size_t>(k)] * category_rates_[cat] * z);
    }
  }
}

void CatEngine::build_dtab(double z, std::span<double> out) const {
  constexpr std::size_t kStride = static_cast<std::size_t>(kMaxCatCategories) * kS;
  const auto& lambda = model_.eigenvalues();
  for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
    for (int k = 0; k < kS; ++k) {
      const double lr = lambda[static_cast<std::size_t>(k)] * category_rates_[cat];
      const double e = std::exp(lr * z);
      const std::size_t index = cat * kS + static_cast<std::size_t>(k);
      out[index] = e;
      out[kStride + index] = lr * e;
      out[2 * kStride + index] = lr * lr * e;
    }
  }
}

void CatEngine::invalidate_node(int node_id) {
  if (node_id < tree_.taxon_count()) return;
  const auto inner = static_cast<std::size_t>(node_id - tree_.taxon_count());
  clas_[inner].valid = false;
  // Free the resident buffer and any spill record eagerly: eviction must
  // never waste a disk write on a CLA that is already dead.
  store_.drop(static_cast<int>(inner));
  sum_prepared_ = false;
  plan_cache_.note_cla_state_changed();
}

void CatEngine::invalidate_all() {
  for (auto& node : clas_) node.valid = false;
  store_.drop_all();
  sum_prepared_ = false;
  plan_cache_.note_cla_state_changed();
}

void CatEngine::set_alpha(double) {
  throw Error(
      "CAT engine: the CAT model has no gamma shape parameter; "
      "use optimize_site_rates() instead");
}

double CatEngine::alpha() const {
  throw Error("CAT engine: the CAT model has no gamma shape parameter");
}

CatEngine::NodeCla& CatEngine::node_cla(int node_id) {
  MINIPHI_ASSERT(node_id >= tree_.taxon_count());
  return clas_[static_cast<std::size_t>(node_id - tree_.taxon_count())];
}

bool CatEngine::slot_valid(const tree::Slot* s) const {
  const auto& node = clas_[static_cast<std::size_t>(s->node_id - tree_.taxon_count())];
  return node.valid && node.orientation == s->slot_index;
}

void CatEngine::ensure_resident_cla(NodeCla& node) {
  MINIPHI_ASSERT(node.valid);
  if (store_.ensure_resident(node.slot) == memory::Residency::kReloaded) {
    // The reload verified the spill checksum, but spilled state re-earns
    // trust exactly like resident state: restart the lazy trust pass.
    node.verified_pass = 0;
  }
}

void CatEngine::pin(int node_id) {
  if (node_id >= tree_.taxon_count()) store_.pin(node_id - tree_.taxon_count());
}

void CatEngine::unpin(int node_id) {
  if (node_id >= tree_.taxon_count()) store_.unpin(node_id - tree_.taxon_count());
}

void CatEngine::validate_edge(tree::Slot* edge) {
  const bool executed = plan_cache_.validate_with(
      edge, [this](const tree::Slot* slot) { return slot_valid(slot); },
      [this](const TraversalPlan& plan) { execute_plan(plan); });
  if (!executed) {
    // Satisfied cache hit or an empty plan: execute_plan never ran, so the
    // endpoints are not pinned yet.  Pin both before pulling either back
    // from the spill tier, so one reload's eviction cannot take the other.
    pin(edge->node_id);
    pin(edge->back->node_id);
  }
  for (tree::Slot* s : {edge, edge->back}) {
    if (s->is_tip()) continue;
    MINIPHI_ASSERT(slot_valid(s));
    ensure_resident_cla(node_cla(s->node_id));
  }
}

void CatEngine::execute_plan(const TraversalPlan& plan) {
  // Roots that were already valid at planning time are plan inputs too:
  // pin them before running any op so the execution cannot evict them.
  for (const PlanRoot& root : plan.roots()) {
    if (root.slot->is_tip() || root.op >= 0) continue;
    ready_child(root.slot, false);
  }
  if (store_.full_resident()) {
    // Full budget: level order, no eviction possible, no pinning inside.
    for (int level = 1; level <= plan.levels(); ++level) {
      for (const std::int32_t op : plan.level_ops(level)) {
        run_plan_op(plan.ops()[static_cast<std::size_t>(op)], /*pinning=*/false);
      }
    }
    // Level order leaves computed roots unpinned; pin them like the DFS
    // path does so validate_edge hands every caller the same contract.
    for (const PlanRoot& root : plan.roots()) {
      if (root.op >= 0) pin(root.slot->node_id);
    }
    return;
  }
  // Tight budget: run in Sethi-Ullman DFS order with pin/unpin discipline
  // so the live working set stays ~log2(n) buffers.  Feed the plan's read
  // positions to the store first: eviction then prefers CLAs with no
  // remaining use in this plan, and otherwise the farthest next use —
  // the register-allocation heuristic of DESIGN.md §14.
  store_.begin_plan();
  const auto& ops = plan.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (tree::Slot* child : {ops[i].slot->child1(), ops[i].slot->child2()}) {
      if (!child->is_tip()) {
        store_.plan_next_use(child->node_id - tree_.taxon_count(),
                             static_cast<std::int64_t>(i));
      }
    }
  }
  for (const PlanRoot& root : plan.roots()) {
    // Roots are read by the kernel that follows the whole plan.
    if (!root.slot->is_tip()) {
      store_.plan_next_use(root.slot->node_id - tree_.taxon_count(),
                           static_cast<std::int64_t>(ops.size()));
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    store_.plan_cursor(static_cast<std::int64_t>(i));
    // Read-ahead: stream this op's and the next op's frontier inputs from
    // the spill tier while kernels run (two-entry ring; extras dropped,
    // resident slots are no-ops).
    prefetch_op_inputs(ops[i]);
    if (i + 1 < ops.size()) prefetch_op_inputs(ops[i + 1]);
    run_plan_op(ops[i], /*pinning=*/true);
  }
}

void CatEngine::run_plan_op(const PlfOp& op, bool pinning) {
  if (pinning) {
    ready_child(op.slot->child1(), op.left_op >= 0);
    ready_child(op.slot->child2(), op.right_op >= 0);
  }
  run_newview(op.slot);
  // The op's Sethi–Ullman `registers` number is exactly the cost of
  // rebuilding this CLA from scratch — the store's recompute-vs-spill
  // signal at eviction time.
  if (op.registers > 0) {
    store_.set_rebuild_cost(op.slot->node_id - tree_.taxon_count(), op.registers);
  }
  if (pinning) {
    unpin(op.slot->child1()->node_id);
    unpin(op.slot->child2()->node_id);
    // The output stays pinned until its consumer (a later op, or the caller
    // for a root) releases it.
    pin(op.slot->node_id);
  }
}

void CatEngine::prefetch_op_inputs(const PlfOp& op) {
  if (op.left_op < 0 && !op.slot->child1()->is_tip() && slot_valid(op.slot->child1())) {
    store_.prefetch(op.slot->child1()->node_id - tree_.taxon_count());
  }
  if (op.right_op < 0 && !op.slot->child2()->is_tip() && slot_valid(op.slot->child2())) {
    store_.prefetch(op.slot->child2()->node_id - tree_.taxon_count());
  }
}

void CatEngine::ready_child(tree::Slot* child, bool computed_in_plan) {
  if (child->is_tip()) return;
  if (computed_in_plan) {
    // An earlier op produced (and pinned) this CLA; it cannot have been
    // evicted since.
    MINIPHI_ASSERT(slot_valid(child));
    return;
  }
  if (slot_valid(child)) {
    pin(child->node_id);
    // Pin first so the reload's own eviction cannot pick this slot.
    ensure_resident_cla(node_cla(child->node_id));
    return;
  }
  // A plan input was evicted-and-dropped between planning and consumption
  // (possible under tight budgets when a sibling subtree recycled its
  // buffer).  Recompute it with a nested sub-plan; the child comes back
  // pinned.  With the spill tier on this path is rare: eviction keeps
  // expensive subtrees on disk and the branch above reloads them instead.
  store_.note_recompute();
  tree::Slot* const goals[1] = {child};
  TraversalPlan subplan;
  plan_cache_.planner().build(
      std::span<tree::Slot* const>(goals),
      [this](const tree::Slot* slot) { return slot_valid(slot); }, subplan);
  for (const PlfOp& sub : subplan.ops()) run_plan_op(sub, /*pinning=*/true);
}

CatChildInput CatEngine::make_child_input(tree::Slot* child, std::span<double> ptable,
                                          std::span<double> ump, double branch_length) {
  build_ptable(branch_length, ptable);
  CatChildInput input;
  input.ptable = ptable.data();
  if (child->is_tip()) {
    build_ump(ptable, ump);
    input.codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
    input.ump = ump.data();
  } else {
    MINIPHI_ASSERT(slot_valid(child));
    auto& node = node_cla(child->node_id);
    ensure_resident_cla(node);
    verify_cla(child);
    input.cla = store_.values(node.slot);
    input.scale = store_.scales(node.slot);
  }
  return input;
}

void CatEngine::store_cla_checksum(NodeCla& node) {
  node.checksum = sdc::checksum_cla(store_.values(node.slot), length_ * kS,
                                    store_.scales(node.slot), length_);
  node.checksummed = true;
  node.verified_pass = sdc_pass_;
}

void CatEngine::verify_cla(const tree::Slot* slot) {
  if (!sdc_checks_) return;
  NodeCla& node = node_cla(slot->node_id);
  if (node.verified_pass == sdc_pass_ || !node.checksummed) return;
  Timer timer;
  const std::uint64_t actual = sdc::checksum_cla(store_.values(node.slot), length_ * kS,
                                                 store_.scales(node.slot), length_);
  ++sdc_counters_.checks;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(sdc_ids_.checks, 1);
    registry.observe(sdc_ids_.verify_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  if (actual != node.checksum) {
    report_corruption(slot->node_id, "sdc: CAT CLA checksum mismatch at node " +
                                         std::to_string(slot->node_id));
  }
  node.verified_pass = sdc_pass_;
}

void CatEngine::report_corruption(int node_id, const std::string& what) {
  ++sdc_counters_.hits;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.hits, 1);
  throw sdc::CorruptionDetected(node_id, what);
}

void CatEngine::heal_or_rethrow(const sdc::CorruptionDetected& fault, int attempt) {
  if (attempt + 1 >= sdc::kHealRetryBudget) {
    ++sdc_counters_.escalations;
    if (metrics_) obs::Registry::instance().add(sdc_ids_.escalations, 1);
    throw;
  }
  // The throw unwound mid-traversal: pins taken by execute_plan or the
  // gradient descent are still held.  Drop them all — the retry re-pins.
  store_.reset_pins();
  if (pre_store_.is_configured()) pre_store_.reset_pins();
  if (fault.node_id() >= 0) {
    invalidate_node(fault.node_id());
  } else {
    invalidate_all();
  }
  ++sdc_counters_.heals;
  if (metrics_) obs::Registry::instance().add(sdc_ids_.heals, 1);
}

bool CatEngine::corrupt_cla_for_testing(int node_id, std::int64_t word, int bit) {
  if (node_id < tree_.taxon_count()) return false;
  NodeCla& node = node_cla(node_id);
  if (!node.valid || !store_.resident(node.slot)) return false;
  double* buffer = store_.values(node.slot);
  const auto index = static_cast<std::size_t>(word) % static_cast<std::size_t>(length_ * kS);
  std::uint64_t bits;
  std::memcpy(&bits, &buffer[index], sizeof(bits));
  bits ^= 1ULL << (bit & 63);
  std::memcpy(&buffer[index], &bits, sizeof(bits));
  node.verified_pass = 0;
  return true;
}

void CatEngine::run_newview(tree::Slot* slot) {
  auto& parent = node_cla(slot->node_id);
  // Write acquisition: the store may evict an unpinned victim, spilling it
  // or (via the on_drop callback) invalidating it — either way cached plans
  // that counted the victim as a resident input stay correct, because a
  // spilled CLA is still logically valid and a dropped one bumps the epoch.
  store_.acquire(parent.slot);
  CatNewviewCtx ctx;
  ctx.parent_cla = store_.values(parent.slot);
  ctx.parent_scale = store_.scales(parent.slot);
  ctx.left = make_child_input(slot->child1(), ptable_left_, ump_left_, slot->next->length);
  ctx.right =
      make_child_input(slot->child2(), ptable_right_, ump_right_, slot->next->next->length);
  ctx.wtable = wtable_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.newview(ctx);
  record_kernel(Kernel::kNewview,
                length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1)),
                timer.seconds());

  parent.orientation = slot->slot_index;
  parent.valid = true;
  if (sdc_checks_) store_cla_checksum(parent);
  sum_prepared_ = false;
  // Reorientation silently invalidates the opposite direction: stale plans
  // must not count this CLA as a resident input.
  plan_cache_.note_cla_state_changed();
}

void CatEngine::record_kernel(Kernel k, std::int64_t cla_blocks, double seconds) {
  auto& stat = stats_.kernel(k);
  const std::int64_t cla_bytes =
      cla_blocks * kCatSiteBlock * static_cast<std::int64_t>(sizeof(double));
  stat.seconds += seconds;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (metrics_) {
    publish_kernel(metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(k))], length_,
                   length_, cla_bytes, seconds);
  }
}

double CatEngine::run_evaluate(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");

  CatEvaluateCtx ctx;
  auto& left = node_cla(p->node_id);
  MINIPHI_ASSERT(slot_valid(p));
  ensure_resident_cla(left);  // both endpoints are pinned by validate_edge
  verify_cla(p);
  ctx.left_cla = store_.values(left.slot);
  ctx.left_scale = store_.scales(left.slot);
  build_diag(edge->length, diag_);
  if (q->is_tip()) {
    for (std::size_t cat = 0; cat < category_rates_.size(); ++cat) {
      for (int code = 0; code < 16; ++code) {
        for (int k = 0; k < kS; ++k) {
          evtab_[(cat * 16 + static_cast<std::size_t>(code)) * kS + static_cast<std::size_t>(k)] =
              diag_[cat * kS + static_cast<std::size_t>(k)] *
              tipvec_[static_cast<std::size_t>(code * kS + k)];
        }
      }
    }
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.evtab = evtab_.data();
  } else {
    MINIPHI_ASSERT(slot_valid(q));
    auto& right = node_cla(q->node_id);
    ensure_resident_cla(right);
    verify_cla(q);
    ctx.right_cla = store_.values(right.slot);
    ctx.right_scale = store_.scales(right.slot);
  }
  ctx.diag = diag_.data();
  ctx.site_categories = site_categories_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.begin = 0;
  ctx.end = length_;

  Timer timer;
  const double result = ops_.evaluate(ctx);
  record_kernel(Kernel::kEvaluate, length_ * (q->is_tip() ? 1 : 2), timer.seconds());
  return result;
}

double CatEngine::log_likelihood(tree::Slot* edge) {
  if (!sdc_checks_) {
    validate_edge(edge);
    const double result = run_evaluate(edge);
    unpin(edge->node_id);
    unpin(edge->back->node_id);
    return result;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      validate_edge(edge);
      const double result = run_evaluate(edge);
      unpin(edge->node_id);
      unpin(edge->back->node_id);
      if (!std::isfinite(result)) {
        report_corruption(-1, "sdc: non-finite log-likelihood from CAT evaluate");
      }
      return result;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

void CatEngine::prepare_derivatives(tree::Slot* edge) {
  if (!sdc_checks_) {
    run_prepare_derivatives(edge);
    return;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      run_prepare_derivatives(edge);
      return;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

void CatEngine::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");

  validate_edge(edge);

  CatSumCtx ctx;
  ctx.sum = sum_buffer_.data();
  auto& left = node_cla(p->node_id);
  ensure_resident_cla(left);  // both endpoints are pinned by validate_edge
  verify_cla(p);
  ctx.left_cla = store_.values(left.slot);
  if (q->is_tip()) {
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.tipvec = tipvec_.data();
  } else {
    auto& right = node_cla(q->node_id);
    ensure_resident_cla(right);
    verify_cla(q);
    ctx.right_cla = store_.values(right.slot);
  }
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.derivative_sum(ctx);
  record_kernel(Kernel::kDerivSum, length_ * (q->is_tip() ? 2 : 3), timer.seconds());
  unpin(p->node_id);
  unpin(q->node_id);
  sum_prepared_ = true;
}

std::pair<double, double> CatEngine::derivatives(double z) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  build_dtab(z, dtab_);
  CatDerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;

  Timer timer;
  ops_.derivative_core(ctx);
  record_kernel(Kernel::kDerivCore, length_, timer.seconds());
  if (sdc_checks_ && (!std::isfinite(ctx.out_first) || !std::isfinite(ctx.out_second))) {
    report_corruption(-1, "sdc: non-finite derivative from CAT derivativeCore");
  }
  return {ctx.out_first, ctx.out_second};
}

double CatEngine::optimize_branch(tree::Slot* edge, int max_iterations) {
  for (int attempt = 0;; ++attempt) {
    prepare_derivatives(edge);  // own heal loop; escalations propagate
    try {
      double z = edge->length;
      for (int iteration = 0; iteration < max_iterations; ++iteration) {
        const auto [first, second] = derivatives(z);
        const double next = LikelihoodEngine::newton_step(z, first, second);
        const bool converged = std::abs(next - z) < 1e-10;
        z = next;
        if (converged) break;
      }
      tree::Tree::set_length(edge, z);
      invalidate_node(edge->node_id);
      invalidate_node(edge->back->node_id);
      return z;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

double CatEngine::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      optimize_branch(edge, 32);
    }
  }
  return log_likelihood(root_edge);
}

bool CatEngine::gradient_all_branches(tree::Slot* root_edge, std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  if (!sdc_checks_) {
    run_gradient_all_branches(root_edge, out);
    return true;
  }
  for (int attempt = 0;; ++attempt) {
    try {
      begin_sdc_pass();
      run_gradient_all_branches(root_edge, out);
      return true;
    } catch (const sdc::CorruptionDetected& fault) {
      heal_or_rethrow(fault, attempt);
    }
  }
}

void CatEngine::run_gradient_all_branches(tree::Slot* root_edge,
                                          std::vector<BranchGradient>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(tree_.edge_count()));
  if (pre_clas_.empty()) pre_clas_.resize(static_cast<std::size_t>(tree_.node_count()));
  if (!pre_store_.is_configured()) {
    // Preorder tier (lazily sized on the first gradient call): one slot per
    // node, tips included.  This tier *always* spills on eviction — an outer
    // partial, unlike a postorder CLA, cannot be recomputed from a subtree —
    // which is what lets the descent run on any CLA budget instead of
    // declining under tight ones.  On the full budget every partial stays
    // resident and the spill file is never created.
    memory::ClaStoreConfig pre_config;
    pre_config.slots = tree_.node_count();
    pre_config.resident =
        store_.full_resident()
            ? tree_.node_count()
            : std::min(tree_.node_count(), std::max(4, store_.resident_count()));
    pre_config.values = length_ * kS;
    pre_config.scales = length_;
    pre_config.spill = true;
    pre_config.spill_min_registers = 0;  // rebuild is impossible: always spill
    pre_config.spill_dir = cla_spill_dir_;
    pre_config.node_id_base = 0;  // preorder slots are node ids already
    pre_config.metrics = metrics_ ? obs::MetricsMode::kOn : obs::MetricsMode::kOff;
    pre_store_.configure(std::move(pre_config));
  }

  // Postorder pass + root-edge derivative via the classic protocol.  Its
  // validate_edge also orients every postorder CLA toward the root edge —
  // exactly the orientation the descent's sibling inputs need.
  run_prepare_derivatives(root_edge);
  const auto [root_first, root_second] = derivatives(root_edge->length);
  out.push_back({root_edge, root_edge->length, root_first, root_second});

  // The descent's reload/rebuild pattern is not the postorder plan the store
  // last saw; open a fresh (empty) plan window so stale next-use hints do
  // not skew eviction toward the wrong victims.
  store_.begin_plan();

  // Preorder pass, serial in emission order: parents precede children by
  // construction, and keeping it serial makes the result independent of the
  // postorder dispatch schedule.
  TraversalPlanner::build_preorder(root_edge, preorder_plan_);
  for (const PlfOp& op : preorder_plan_.ops()) run_preorder_op(preorder_plan_, op, out);
  sum_prepared_ = false;  // sum_buffer_ holds the last preorder edge's sums
}

void CatEngine::run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                                std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(op.kind == PlfOpKind::kPreorder);
  tree::Slot* toward = op.slot;      // u's slot pointing down at v
  tree::Slot* v_slot = toward->back; // v, the node this partial points at
  const int v = op.node_id;

  PreorderCla& pre = pre_clas_[static_cast<std::size_t>(v)];
  // The node's preorder partial lives in the preorder tier (slot == node
  // id).  Write-acquire and pin it for the whole op: newview fills it and
  // the gradient contraction below reads it back.
  pre_store_.acquire(v);
  pre_store_.pin(v);

  int pinned_pre_parent = -1;              // preorder-tier pin to release after newview
  tree::Slot* pinned_left_post = nullptr;  // postorder pins likewise
  tree::Slot* root_slot = nullptr;         // seed ops only
  tree::Slot* opposite = nullptr;
  tree::Slot* sib = op.sibling->back;  // right input: the sibling's postorder side
  if (op.left_op < 0) {
    // Seed op at the root edge: the parent input is the *opposite* endpoint
    // of the root edge across root_edge->length.
    root_slot = (toward->next == op.sibling) ? toward->next->next : toward->next;
    opposite = root_slot->back;
  }
  // Ready (pin + reload or rebuild) every postorder input *before* building
  // any kernel context: under a tight budget ready_child may recompute a
  // dropped CLA through run_newview, which rebuilds through the very
  // ptable/ump workspaces the contexts below point into.
  if (opposite != nullptr) {
    ready_child(opposite, /*computed_in_plan=*/false);
    pinned_left_post = opposite;
  }
  ready_child(sib, /*computed_in_plan=*/false);

  // Preorder partial of v = newview(parent input across the edge above u,
  // sibling's postorder CLA across the sibling edge).
  CatNewviewCtx ctx;
  ctx.parent_cla = pre_store_.values(v);
  ctx.parent_scale = pre_store_.scales(v);
  if (op.left_op >= 0) {
    const PlfOp& above = plan.ops()[static_cast<std::size_t>(op.left_op)];
    const int u = toward->node_id;
    // The parent's preorder partial may have been evicted to the spill tier
    // since it was computed; pin before the reload so the sibling's own
    // residency work cannot displace it.
    pre_store_.pin(u);
    pinned_pre_parent = u;
    if (pre_store_.ensure_resident(u) == memory::Residency::kReloaded) {
      pre_clas_[static_cast<std::size_t>(u)].verified_pass = 0;
    }
    verify_preorder_cla(u);
    build_ptable(above.slot->length, ptable_left_);
    ctx.left.ptable = ptable_left_.data();
    ctx.left.cla = pre_store_.values(u);
    ctx.left.scale = pre_store_.scales(u);
  } else {
    ctx.left = make_child_input(opposite, ptable_left_, ump_left_, root_slot->length);
  }
  ctx.right = make_child_input(sib, ptable_right_, ump_right_, op.sibling->length);
  ctx.wtable = wtable_.data();
  ctx.site_categories = site_categories_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  Timer timer;
  ops_.newview(ctx);
  record_kernel(Kernel::kNewview,
                length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1)),
                timer.seconds());
  // The newview inputs are consumed; release their pins before the gradient
  // contraction pulls in the node's own postorder side.
  if (pinned_pre_parent >= 0) pre_store_.unpin(pinned_pre_parent);
  if (pinned_left_post != nullptr) unpin(pinned_left_post->node_id);
  unpin(sib->node_id);
  if (sdc_checks_) {
    pre.checksum =
        sdc::checksum_cla(ctx.parent_cla, length_ * kS, ctx.parent_scale, length_);
    pre.checksummed = true;
    pre.verified_pass = 0;  // trust is earned at consumption, not at compute
  }

  // Gradient of the edge (u, v): derivative sums of the preorder partial
  // against v's own postorder side, then the derivative core at toward's
  // length.  Scale factors cancel in the ℓ'/ℓ'' ratios.
  CatSumCtx sctx;
  sctx.sum = sum_buffer_.data();
  sctx.left_cla = ctx.parent_cla;
  const bool right_tip = v_slot->is_tip();
  if (right_tip) {
    sctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(v)].data() + offset_;
    sctx.tipvec = tipvec_.data();
  } else {
    // The node's own postorder CLA: reload or rebuild it like any other
    // tight-budget input (pinned until the contraction is done).
    ready_child(v_slot, /*computed_in_plan=*/false);
    verify_cla(v_slot);
    sctx.right_cla = store_.values(node_cla(v).slot);
  }
  sctx.begin = 0;
  sctx.end = length_;
  sctx.tuning = tuning_;
  Timer sum_timer;
  ops_.derivative_sum(sctx);
  record_kernel(Kernel::kDerivSum, length_ * (right_tip ? 2 : 3), sum_timer.seconds());
  // The contraction is done with both CLAs; derivativeCore below reads only
  // the sum buffer.
  if (!right_tip) unpin(v);
  pre_store_.unpin(v);

  build_dtab(toward->length, dtab_);
  CatDerivCtx dctx;
  dctx.sum = sum_buffer_.data();
  dctx.weights = patterns_.weights.data() + offset_;
  dctx.dtab = dtab_.data();
  dctx.site_categories = site_categories_.data();
  dctx.begin = 0;
  dctx.end = length_;
  Timer core_timer;
  ops_.derivative_core(dctx);
  record_kernel(Kernel::kDerivCore, length_, core_timer.seconds());
  if (sdc_checks_ && (!std::isfinite(dctx.out_first) || !std::isfinite(dctx.out_second))) {
    report_corruption(-1, "sdc: non-finite all-branch gradient from CAT derivativeCore");
  }
  out.push_back({toward, toward->length, dctx.out_first, dctx.out_second});
}

void CatEngine::verify_preorder_cla(int node_id) {
  if (!sdc_checks_) return;
  PreorderCla& pre = pre_clas_[static_cast<std::size_t>(node_id)];
  if (pre.verified_pass == sdc_pass_ || !pre.checksummed) return;
  Timer timer;
  // Callers pin the partial resident before asking for verification.
  const std::uint64_t actual = sdc::checksum_cla(pre_store_.values(node_id), length_ * kS,
                                                 pre_store_.scales(node_id), length_);
  ++sdc_counters_.checks;
  if (metrics_) {
    obs::Registry& registry = obs::Registry::instance();
    registry.add(sdc_ids_.checks, 1);
    registry.observe(sdc_ids_.verify_ns, static_cast<std::int64_t>(timer.seconds() * 1e9));
  }
  if (actual != pre.checksum) {
    // Preorder partials are transient (no committed copy to pinpoint), so
    // heal with the full-sweep path.
    report_corruption(-1, "sdc: CAT preorder partial checksum mismatch at node " +
                              std::to_string(node_id));
  }
  pre.verified_pass = sdc_pass_;
}

std::vector<double> CatEngine::single_rate_site_log_likelihoods(tree::Slot* root_edge,
                                                                double rate) {
  // Per-site log-likelihood with `rate` applied on EVERY branch — the
  // analogue of RAxML's evaluatePartial machinery used to score candidate
  // per-site rates.  One probability-space pruning pass with per-site
  // log-scaling; O(nodes × patterns) per call, called once per grid point.
  const std::size_t npat = static_cast<std::size_t>(length_);
  struct Cond {
    std::vector<double> values;       // [npat * 4]
    std::vector<double> log_scale;    // [npat]
  };

  const std::function<Cond(const tree::Slot*)> down = [&](const tree::Slot* slot) -> Cond {
    Cond out;
    out.values.assign(npat * kS, 0.0);
    out.log_scale.assign(npat, 0.0);
    if (slot->is_tip()) {
      const auto* codes =
          patterns_.tip_rows[static_cast<std::size_t>(slot->node_id)].data() + offset_;
      for (std::size_t s = 0; s < npat; ++s) {
        for (int i = 0; i < kS; ++i) {
          out.values[s * kS + static_cast<std::size_t>(i)] = (codes[s] & (1 << i)) ? 1.0 : 0.0;
        }
      }
      return out;
    }
    const Cond left = down(slot->child1());
    const Cond right = down(slot->child2());
    const auto p1 = model_.transition_matrix(slot->next->length, rate);
    const auto p2 = model_.transition_matrix(slot->next->next->length, rate);
    for (std::size_t s = 0; s < npat; ++s) {
      double max_value = 0.0;
      for (int i = 0; i < kS; ++i) {
        double a = 0.0;
        double b = 0.0;
        for (int j = 0; j < kS; ++j) {
          a += p1[static_cast<std::size_t>(i * kS + j)] * left.values[s * kS + static_cast<std::size_t>(j)];
          b += p2[static_cast<std::size_t>(i * kS + j)] * right.values[s * kS + static_cast<std::size_t>(j)];
        }
        const double value = a * b;
        out.values[s * kS + static_cast<std::size_t>(i)] = value;
        max_value = std::max(max_value, value);
      }
      out.log_scale[s] = left.log_scale[s] + right.log_scale[s];
      if (max_value > 0.0 && max_value < 1e-100) {
        for (int i = 0; i < kS; ++i) out.values[s * kS + static_cast<std::size_t>(i)] *= 1e100;
        out.log_scale[s] -= std::log(1e100);
      }
    }
    return out;
  };

  tree::Slot* p = root_edge;
  tree::Slot* q = root_edge->back;
  if (p->is_tip()) std::swap(p, q);
  const Cond below_p = down(p);
  const Cond below_q = down(q);
  const auto pr = model_.transition_matrix(root_edge->length, rate);
  const auto& pi = model_.frequencies();

  std::vector<double> out(npat);
  for (std::size_t s = 0; s < npat; ++s) {
    double site = 0.0;
    for (int i = 0; i < kS; ++i) {
      double inner = 0.0;
      for (int j = 0; j < kS; ++j) {
        inner += pr[static_cast<std::size_t>(i * kS + j)] *
                 below_q.values[s * kS + static_cast<std::size_t>(j)];
      }
      site += pi[static_cast<std::size_t>(i)] *
              below_p.values[s * kS + static_cast<std::size_t>(i)] * inner;
    }
    out[s] = std::log(std::max(site, 1e-300)) + below_p.log_scale[s] + below_q.log_scale[s];
  }
  return out;
}

double CatEngine::optimize_site_rates(tree::Slot* root_edge, int iterations) {
  const int ncat = category_count();

  // Log-spaced trial grid (RAxML uses per-site Brent; a fixed grid scan is
  // the equivalent, simpler policy at these costs).
  constexpr int kGridSize = 32;
  constexpr double kMinRate = 1e-3;
  constexpr double kMaxRate = 32.0;
  std::array<double, kGridSize> grid{};
  for (int g = 0; g < kGridSize; ++g) {
    grid[static_cast<std::size_t>(g)] =
        kMinRate * std::pow(kMaxRate / kMinRate, static_cast<double>(g) / (kGridSize - 1));
  }

  double lnl = log_likelihood(root_edge);
  for (int iteration = 0; iteration < iterations; ++iteration) {
    // Per-site best whole-tree rate over the grid.
    std::vector<double> best_rate(static_cast<std::size_t>(length_), 1.0);
    std::vector<double> best_value(static_cast<std::size_t>(length_), -1e300);
    for (const double rate : grid) {
      const auto site_lnl = single_rate_site_log_likelihoods(root_edge, rate);
      for (std::int64_t s = 0; s < length_; ++s) {
        if (site_lnl[static_cast<std::size_t>(s)] > best_value[static_cast<std::size_t>(s)]) {
          best_value[static_cast<std::size_t>(s)] = site_lnl[static_cast<std::size_t>(s)];
          best_rate[static_cast<std::size_t>(s)] = rate;
        }
      }
    }

    // Cluster per-site rates into ncat equal-weight categories (sorted by
    // rate, split by cumulative pattern weight), rate = weighted mean.
    std::vector<std::int64_t> order(static_cast<std::size_t>(length_));
    std::iota(order.begin(), order.end(), std::int64_t{0});
    std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
      return best_rate[static_cast<std::size_t>(a)] < best_rate[static_cast<std::size_t>(b)];
    });
    double total_weight = 0.0;
    for (std::int64_t s = 0; s < length_; ++s) {
      total_weight += patterns_.weights[static_cast<std::size_t>(offset_ + s)];
    }

    std::vector<double> new_rates(static_cast<std::size_t>(ncat), 0.0);
    std::vector<double> bucket_weight(static_cast<std::size_t>(ncat), 0.0);
    std::vector<std::uint8_t> assignment(static_cast<std::size_t>(length_), 0);
    double cumulative = 0.0;
    for (const std::int64_t s : order) {
      const double w = patterns_.weights[static_cast<std::size_t>(offset_ + s)];
      int bucket = static_cast<int>(cumulative / total_weight * ncat);
      bucket = std::min(bucket, ncat - 1);
      assignment[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(bucket);
      new_rates[static_cast<std::size_t>(bucket)] +=
          w * best_rate[static_cast<std::size_t>(s)];
      bucket_weight[static_cast<std::size_t>(bucket)] += w;
      cumulative += w;
    }
    for (int c = 0; c < ncat; ++c) {
      new_rates[static_cast<std::size_t>(c)] =
          (bucket_weight[static_cast<std::size_t>(c)] > 0.0)
              ? new_rates[static_cast<std::size_t>(c)] /
                    bucket_weight[static_cast<std::size_t>(c)]
              : grid[kGridSize / 2];
    }

    // Renormalize to unit weighted mean rate and rescale every branch by
    // the same factor so that r·z products — and hence the likelihood —
    // are invariant under the normalization (as in RAxML; this keeps
    // branch lengths in expected-substitutions-per-site units).
    double mean = 0.0;
    for (std::int64_t s = 0; s < length_; ++s) {
      mean += patterns_.weights[static_cast<std::size_t>(offset_ + s)] *
              new_rates[assignment[static_cast<std::size_t>(s)]];
    }
    mean /= total_weight;
    for (auto& rate : new_rates) rate /= mean;
    for (tree::Slot* edge : tree_.edges()) {
      tree::Tree::set_length(edge, std::clamp(edge->length * mean, kMinBranchLength,
                                              kMaxBranchLength));
    }

    set_categories(std::move(new_rates), std::move(assignment));
    const double updated = log_likelihood(root_edge);
    if (updated < lnl - 1e-9 && iteration > 0) break;  // no further gain
    lnl = updated;
  }
  return lnl;
}

}  // namespace miniphi::core
