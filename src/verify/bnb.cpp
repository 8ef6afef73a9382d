#include "verify/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "nn/batch_eval.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"
#include "verify/task.hpp"

namespace fannet::verify {

using util::i128;

namespace {

Counterexample make_cex(const Query& q, std::span<const int> deltas,
                        int mis_label) {
  Counterexample cex;
  cex.deltas.assign(deltas.begin(),
                    deltas.begin() + static_cast<std::ptrdiff_t>(q.x.size()));
  cex.bias_delta = q.bias_node ? deltas[q.x.size()] : 0;
  cex.mis_label = mis_label;
  return cex;
}

/// Visits every grid point of `box` in ascending lexicographic order (the
/// full noise vector, first dimension most significant), until `fn`
/// returns false.  Lex order is what makes the top-K early stop sound:
/// once a visited point reaches the prune bound, every later point does.
template <typename Fn>
void for_each_lex(const NoiseBox& box, Fn&& fn) {
  std::vector<int> p(box.lo);
  for (;;) {
    if (!fn(p)) return;
    std::size_t d = box.dims();
    while (d > 0) {
      if (++p[d - 1] <= box.hi[d - 1]) break;
      p[d - 1] = box.lo[d - 1];
      --d;
    }
    if (d == 0) return;
  }
}

/// Work-stealing frontier of boxes: one deque per worker.  Owners push and
/// pop at their own back (depth-first), idle workers steal the *oldest*
/// half of a victim's deque — the shallowest boxes, which bisect into the
/// most further work, so one steal keeps a thief busy for a while.
/// Termination: a global in-flight count covers queued *and*
/// being-processed boxes; when it hits zero no box exists and none can be
/// created, so every worker drains out of pop().
class Frontier {
 public:
  explicit Frontier(std::size_t workers) : lanes_(workers) {}

  void push(std::size_t w, NoiseBox box) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    Lane& lane = lanes_[w];
    const util::MutexLock lock(lane.mutex);
    lane.deque.push_back(std::move(box));
  }

  /// Pops the caller's newest box, stealing when its own lane is empty.
  /// Returns false once the search is over — `quit` was raised or the
  /// frontier is globally drained — or, when `yield` is set, once a step
  /// quota asks the workers to park (the frontier stays intact for the
  /// next step; popped boxes are always fully processed).
  bool pop(std::size_t w, NoiseBox& out, const std::atomic<bool>& quit,
           const std::atomic<bool>* yield = nullptr) {
    for (;;) {
      if (quit.load(std::memory_order_acquire)) return false;
      if (yield != nullptr && yield->load(std::memory_order_acquire)) {
        return false;
      }
      {
        Lane& lane = lanes_[w];
        const util::MutexLock lock(lane.mutex);
        if (!lane.deque.empty()) {
          out = std::move(lane.deque.back());
          lane.deque.pop_back();
          return true;
        }
      }
      if (steal_into(w)) continue;
      if (in_flight_.load(std::memory_order_acquire) == 0) return false;
      std::this_thread::yield();
    }
  }

  /// Marks one popped box fully processed (its children, if any, were
  /// pushed before this call, so in-flight never dips to zero early).
  void done() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }

  /// True when no box is queued or being processed — the search space is
  /// fully explored (checked between steps, when no worker is running).
  [[nodiscard]] bool drained() const noexcept {
    return in_flight_.load(std::memory_order_acquire) == 0;
  }

 private:
  struct Lane {
    util::Mutex mutex;
    std::deque<NoiseBox> deque FANNET_GUARDED_BY(mutex);
  };

  /// Steal-half: moves the older half of the first non-empty victim lane
  /// into lane `w` (age order preserved).  Returns whether anything moved.
  bool steal_into(std::size_t w) {
    const std::size_t n = lanes_.size();
    for (std::size_t off = 1; off < n; ++off) {
      Lane& victim = lanes_[(w + off) % n];
      std::deque<NoiseBox> loot;
      {
        const util::MutexLock lock(victim.mutex);
        const std::size_t have = victim.deque.size();
        if (have == 0) continue;
        const auto take = static_cast<std::ptrdiff_t>((have + 1) / 2);
        loot.assign(std::make_move_iterator(victim.deque.begin()),
                    std::make_move_iterator(victim.deque.begin() + take));
        victim.deque.erase(victim.deque.begin(), victim.deque.begin() + take);
      }
      Lane& mine = lanes_[w];
      const util::MutexLock lock(mine.mutex);
      for (NoiseBox& box : loot) mine.deque.push_back(std::move(box));
      return true;
    }
    return false;
  }

  std::vector<Lane> lanes_;
  std::atomic<std::size_t> in_flight_{0};
};

/// The K lexicographically-smallest counterexamples found so far, keyed by
/// the full noise vector.  Once full, the largest member is the global
/// frontier prune bound: a box whose lex-min corner (box.lo) is >= it
/// cannot contribute, because frontier boxes are disjoint from every
/// region already searched and the set only ever improves.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void offer(const std::vector<int>& point, int mis_label) {
    const util::MutexLock lock(mutex_);
    if (set_.size() == k_) {
      const auto last = std::prev(set_.end());
      if (!(point < last->first)) return;
      set_.erase(last);
    }
    set_.emplace(point, mis_label);
    version_.fetch_add(1, std::memory_order_release);
  }

  /// Worker-local bound cache: re-copies the bound only when the set
  /// version moved, so the hot prune check is one relaxed atomic load.
  /// Returns whether a bound exists (the set is full).
  bool refresh(std::uint64_t& seen_version,
               std::optional<std::vector<int>>& bound) const {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    if (v != seen_version) {
      const util::MutexLock lock(mutex_);
      seen_version = version_.load(std::memory_order_relaxed);
      if (set_.size() == k_) bound = std::prev(set_.end())->first;
    }
    return bound.has_value();
  }

  /// Moves the set out.  Callers invoke this after the worker pool joined,
  /// but taking the lock anyway is free there and keeps the guarded-field
  /// rule exception-free.
  [[nodiscard]] std::map<std::vector<int>, int> take() {
    const util::MutexLock lock(mutex_);
    return std::move(set_);
  }

 private:
  std::size_t k_;
  mutable util::Mutex mutex_;
  /// full noise vector -> mis_label
  std::map<std::vector<int>, int> set_ FANNET_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> version_{0};
};

struct Search {
  const Query& query;
  const BnbOptions& options;
  /// Exhaustive-stream mode when set; top-K mode (via `topk`) otherwise.
  const std::function<bool(const Counterexample&)>* sink = nullptr;
  TopK* topk = nullptr;

  Frontier frontier;
  std::atomic<std::uint64_t> boxes{0};
  std::atomic<bool> quit{false};
  std::atomic<bool> exhausted{false};
  std::atomic<bool> sink_stopped{false};
  util::Mutex sink_mutex;
  util::FirstError error;

  /// Deadline/cancel source (BnbOptions::budget); polled per box and every
  /// ~256 drain points.  Always non-null once the search is set up.
  const Budget* budget = nullptr;
  /// Cooperative step machinery (BnbTask only).  When `yield` is non-null,
  /// workers set it — and park at their next pop — once `boxes` reaches
  /// `step_target` or `extra_yield` fires (the task's pause flag).
  std::atomic<bool>* yield = nullptr;
  std::uint64_t step_target = 0;
  std::function<bool()> extra_yield;

  Search(const Query& q, const BnbOptions& o, std::size_t workers)
      : query(q), options(o), frontier(workers) {}
};

/// Margin slack of a box under the given (parent) margin forms: how far
/// the weakest margin lower bound sits above the flip threshold.  Negative
/// slack means the box may flip; the most negative box is the most
/// promising place to look for a witness (best-first policy).
i128 margin_slack(const MarginForms& mf, std::size_t y, const NoiseBox& box) {
  i128 slack = 0;
  bool first = true;
  for (std::size_t k = 0; k < mf.lo.size(); ++k) {
    if (k == y) continue;
    const i128 needed = (k < y) ? 1 : 0;
    const i128 s = mf.lo[k].min_over(box) - needed;
    if (first || s < slack) slack = s;
    first = false;
  }
  return slack;
}

class Worker {
 public:
  Worker(Search& s, std::size_t index)
      : s_(s), w_(index), sub_(s.query),
        y_(static_cast<std::size_t>(s.query.true_label)) {}

  void run() {
    NoiseBox box;
    while (s_.frontier.pop(w_, box, s_.quit, s_.yield)) {
      try {
        process(std::move(box));
      } catch (...) {
        s_.error.capture();
        s_.quit.store(true, std::memory_order_release);
      }
      s_.frontier.done();
      if (s_.yield != nullptr &&
          (s_.boxes.load(std::memory_order_relaxed) >= s_.step_target ||
           (s_.extra_yield && s_.extra_yield()))) {
        s_.yield->store(true, std::memory_order_release);
      }
    }
  }

 private:
  /// Delivers one verified counterexample: into the top-K set, or to the
  /// sink (serialized; a false return cancels the whole search).
  void emit(const std::vector<int>& point, int mis_label) {
    if (s_.topk != nullptr) {
      s_.topk->offer(point, mis_label);
      return;
    }
    const util::MutexLock lock(s_.sink_mutex);
    if (s_.sink_stopped.load(std::memory_order_relaxed)) return;
    if (!(*s_.sink)(make_cex(s_.query, point, mis_label))) {
      s_.sink_stopped.store(true, std::memory_order_relaxed);
      s_.quit.store(true, std::memory_order_release);
    }
  }

  /// Top-K frontier prune: true when the box cannot contain any point
  /// below the current K-th smallest counterexample.
  bool pruned_by_bound(const NoiseBox& box) {
    if (s_.topk == nullptr) return false;
    if (!s_.topk->refresh(bound_version_, bound_)) return false;
    return !(box.lo < *bound_);
  }

  /// Periodic deadline/cancel poll inside flips-everywhere drains: maps an
  /// expiry onto the exhausted path (witnesses already emitted stay
  /// valid).  Strided so the steady_clock read is amortized.
  bool drain_interrupted() {
    if ((++poll_ & 255u) != 0) return false;
    if (!s_.budget->interrupted()) return false;
    s_.exhausted.store(true, std::memory_order_relaxed);
    s_.quit.store(true, std::memory_order_release);
    return true;
  }

  void process(NoiseBox box) {
    const std::uint64_t seen =
        s_.boxes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (seen > s_.options.max_boxes || s_.budget->interrupted()) {
      s_.exhausted.store(true, std::memory_order_relaxed);
      s_.quit.store(true, std::memory_order_release);
      return;
    }
    if (pruned_by_bound(box)) return;

    if (box.is_singleton()) {
      const int label = classify_under_noise(sub_, box.lo);
      if (label != s_.query.true_label) emit(box.lo, label);
      return;
    }

    // Bound the whole box: certified-safe boxes are dropped, certified
    // flip-everywhere boxes enumerate their (all-counterexample) points in
    // lex order, undecided boxes bisect.
    bool flips_everywhere = false;
    bool all_safe = false;
    MarginForms mf;
    sub_.box = box;
    if (s_.options.use_symbolic) {
      mf = margin_forms(sub_);
      all_safe = true;
      for (std::size_t k = 0; k < mf.lo.size(); ++k) {
        if (k == y_) continue;
        const i128 needed = (k < y_) ? 1 : 0;
        if (mf.lo[k].min_over(box) < needed) all_safe = false;
        if (mf.hi[k].max_over(box) < needed) {  // O_k beats O_y everywhere
          flips_everywhere = true;
          break;
        }
      }
    } else {
      all_safe = interval_verify(sub_).verdict == Verdict::kRobust;
    }
    if (all_safe && !flips_everywhere) return;

    if (flips_everywhere) {
      const std::size_t lanes =
          nn::BatchEvaluator::resolve_batch(s_.options.batch);
      if (lanes > 1) {
        drain_flips_box_batched(box, lanes);
        return;
      }
      for_each_lex(box, [&](const std::vector<int>& point) {
        if (s_.quit.load(std::memory_order_acquire)) return false;
        if (drain_interrupted()) return false;
        // Lex order: once the top-K bound is reached, no later point in
        // this box can enter the set.
        if (s_.topk != nullptr && s_.topk->refresh(bound_version_, bound_) &&
            !(point < *bound_)) {
          return false;
        }
        emit(point, classify_under_noise(sub_, point));
        return true;
      });
      return;
    }

    // Bisect the longest edge.
    std::size_t dim = 0;
    int best_span = -1;
    for (std::size_t d = 0; d < box.dims(); ++d) {
      const int span = box.hi[d] - box.lo[d];
      if (span > best_span) {
        best_span = span;
        dim = d;
      }
    }
    const int mid = box.lo[dim] + (box.hi[dim] - box.lo[dim]) / 2;
    NoiseBox left = box, right = box;
    left.hi[dim] = mid;
    right.lo[dim] = mid + 1;

    // Box-priority policy: the child pushed *last* is popped first.
    bool left_first = true;
    if (s_.options.policy == BnbOptions::Policy::kBestFirst &&
        s_.options.use_symbolic) {
      // Parent forms stay sound on sub-boxes, so scoring is O(dims) per
      // margin — no re-propagation.  Ties keep the depth-first order.
      left_first = margin_slack(mf, y_, left) <= margin_slack(mf, y_, right);
    }
    if (left_first) {
      s_.frontier.push(w_, std::move(right));
      s_.frontier.push(w_, std::move(left));
    } else {
      s_.frontier.push(w_, std::move(left));
      s_.frontier.push(w_, std::move(right));
    }
  }

  /// Batched flips-everywhere drain: stages chunks of the box's lex-order
  /// points through the SoA kernel, then replays them in order with the
  /// same quit / top-K-bound checks (and the same emissions) as the scalar
  /// loop.  Lanes the kernel flags as overflowing re-run the scalar path,
  /// which throws the genuine ArithmeticError the scalar loop would.
  void drain_flips_box_batched(const NoiseBox& box, std::size_t lanes) {
    if (!evaluator_) {
      evaluator_.emplace(*s_.query.net);
      batch_.emplace(evaluator_->make_batch());
    }
    const std::size_t n = s_.query.x.size();
    std::vector<int> p(box.lo);
    bool done = false;
    while (!done) {
      batch_->clear();
      points_.clear();
      while (points_.size() < lanes && !done) {
        const int bias_delta = s_.query.bias_node ? p[n] : 0;
        batch_->push_noised(s_.query.x, std::span<const int>(p).subspan(0, n),
                            nn::kNoiseDen + bias_delta);
        points_.push_back(p);
        // Lex advance, last dimension fastest (for_each_lex's order).
        std::size_t d = box.dims();
        while (d > 0) {
          if (++p[d - 1] <= box.hi[d - 1]) break;
          p[d - 1] = box.lo[d - 1];
          --d;
        }
        done = (d == 0);
      }
      evaluator_->run(*batch_);
      for (std::size_t t = 0; t < points_.size(); ++t) {
        if (s_.quit.load(std::memory_order_acquire)) return;
        if (drain_interrupted()) return;
        if (s_.topk != nullptr && s_.topk->refresh(bound_version_, bound_) &&
            !(points_[t] < *bound_)) {
          return;
        }
        const int label = batch_->overflowed(t)
                              ? classify_under_noise(sub_, points_[t])
                              : batch_->label(t);
        emit(points_[t], label);
      }
    }
  }

  Search& s_;
  std::size_t w_;
  Query sub_;  // per-worker scratch query (box rewritten per candidate)
  std::size_t y_;
  std::uint32_t poll_ = 0;  // drain_interrupted stride counter
  std::uint64_t bound_version_ = 0;
  std::optional<std::vector<int>> bound_;
  std::optional<nn::BatchEvaluator> evaluator_;  // lazy: flips drains only
  std::optional<nn::BatchEvaluator::Batch> batch_;
  std::vector<std::vector<int>> points_;
};

struct SearchOutcome {
  std::map<std::vector<int>, int> found;  // top-K mode only
  std::uint64_t boxes = 0;
  bool exhausted = false;
};

[[nodiscard]] std::size_t resolve_workers(std::size_t threads) {
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// The worker pool both drivers share: runs `workers` Workers over the
/// search until the frontier drains, the search quits, or a step quota
/// parks them — inline when serial, else on a joined pool — and rethrows
/// the first worker error.
void run_workers(Search& search, std::size_t workers) {
  if (workers == 1) {
    Worker(search, 0).run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&search, w] { Worker(search, w).run(); });
    }
    for (std::thread& t : pool) t.join();
  }
  search.error.rethrow_if_set();
}

/// Runs the exhaustive-stream or top-K search (bnb_stream, bnb_collect) to
/// completion or cancellation.  `sink` selects exhaustive-stream mode;
/// `top_k` (with null sink) selects deterministic smallest-K collection.
/// The decision query runs as a BnbTask instead.
SearchOutcome run_search(const Query& query, const BnbOptions& options,
                         const std::function<bool(const Counterexample&)>* sink,
                         std::size_t top_k) {
  query.validate();
  const std::size_t workers = resolve_workers(options.threads);
  Search search(query, options, workers);
  search.budget = &options.budget;
  std::optional<TopK> topk;
  if (sink == nullptr) {
    topk.emplace(top_k);
    search.topk = &*topk;
  } else {
    search.sink = sink;
  }
  search.frontier.push(0, query.box);
  run_workers(search, workers);

  SearchOutcome outcome;
  if (topk.has_value()) outcome.found = topk->take();
  outcome.boxes = search.boxes.load();
  outcome.exhausted = search.exhausted.load();
  return outcome;
}

/// Decision-query result from a finished top-1 search.
[[nodiscard]] VerifyResult compose_decision(const Query& query,
                                            SearchOutcome outcome) {
  VerifyResult result;
  result.work = outcome.boxes;
  result.resource_limited = outcome.exhausted;
  if (!outcome.found.empty()) {
    // Sound even under budget exhaustion: every emitted point was exactly
    // evaluated.  Within budget this is the lex-lowest counterexample;
    // exhausted runs may return a non-minimal (still valid) witness,
    // flagged resource_limited so it is never cached as canonical.
    const auto& [point, mis_label] = *outcome.found.begin();
    result.verdict = Verdict::kVulnerable;
    result.counterexample = make_cex(query, point, mis_label);
  } else {
    result.verdict = outcome.exhausted ? Verdict::kUnknown : Verdict::kRobust;
  }
  return result;
}

/// The decision query — `bnb_verify` runs it in one unbounded step, the
/// scheduler in quota-sized steps.  Owns the Search (frontier, top-1 set,
/// box counter) across steps.  Each step re-arms the box quota, runs the
/// worker pool until the quota is hit / the frontier drains / the search
/// quits, and joins the workers — so between steps no thread is running
/// and the checkpoint is just the parked frontier.  Exploration *order*
/// is all that pausing perturbs, and the lex-lowest-witness guarantee is
/// order-independent.
class BnbTask final : public EngineTask {
 public:
  BnbTask(Query query, BnbOptions options)
      : EngineTask(options.budget),
        query_(std::move(query)),
        options_(std::move(options)) {}

 private:
  bool step_impl(std::uint64_t max_work, VerifyResult& out) override {
    if (!search_.has_value()) {
      query_.validate();
      workers_ = resolve_workers(options_.threads);
      search_.emplace(query_, options_, workers_);
      topk_.emplace(1);
      search_->topk = &*topk_;
      search_->budget = &budget();
      search_->yield = &yield_;
      search_->extra_yield = [this] { return should_yield(); };
      search_->frontier.push(0, query_.box);
    }
    yield_.store(false, std::memory_order_relaxed);
    search_->step_target = saturating_add(
        search_->boxes.load(std::memory_order_relaxed), max_work);
    run_workers(*search_, workers_);

    const bool finished = search_->quit.load(std::memory_order_acquire) ||
                          search_->frontier.drained();
    // A deadline or cancel that parked the workers ends the search like an
    // exhausted budget: a witness already in hand survives, flagged.
    const bool cut = !finished && interrupted();
    if (!finished && !cut) return false;  // parked on the step quota / a pause
    SearchOutcome outcome;
    outcome.found = topk_->take();
    outcome.boxes = search_->boxes.load();
    outcome.exhausted = search_->exhausted.load() || cut;
    out = compose_decision(query_, std::move(outcome));
    return true;
  }

  Query query_;
  BnbOptions options_;
  std::size_t workers_ = 1;
  std::optional<Search> search_;  // constructed on the first step
  std::optional<TopK> topk_;
  std::atomic<bool> yield_{false};
};

}  // namespace

std::uint64_t bnb_stream(const Query& query,
                         const std::function<bool(const Counterexample&)>& sink,
                         BnbOptions options) {
  const SearchOutcome outcome = run_search(query, options, &sink, 0);
  if (outcome.exhausted) throw ResourceLimit("bnb: box budget exceeded");
  return outcome.boxes;
}

VerifyResult bnb_verify(const Query& query, BnbOptions options) {
  return run_task(*make_bnb_task(query, options));
}

std::unique_ptr<EngineTask> make_bnb_task(const Query& query,
                                          const BnbOptions& options) {
  query.validate();
  return std::make_unique<BnbTask>(query, options);
}

std::vector<Counterexample> bnb_collect(const Query& query,
                                        std::size_t max_count,
                                        BnbOptions options) {
  std::vector<Counterexample> out;
  if (max_count == 0) return out;
  const SearchOutcome outcome = run_search(query, options, nullptr, max_count);
  if (outcome.exhausted) throw ResourceLimit("bnb: box budget exceeded");
  out.reserve(outcome.found.size());
  for (const auto& [point, mis_label] : outcome.found) {
    out.push_back(make_cex(query, point, mis_label));
  }
  return out;  // std::map iteration = ascending lex order
}

}  // namespace fannet::verify
