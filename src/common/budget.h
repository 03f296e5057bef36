// Compute/time budgets and cooperative cancellation — the primitives the
// Engine facade uses to make every solve interruptible and bounded.
//
// ComputeBudget is the one thread-count knob: a struct, consumed by the
// MILP tree search and SketchRefine alike, describing how many threads a
// solve may use in total and how many of them each branch-and-bound tree
// search gets.
//
// CancelToken is a copyable handle on a shared cancellation flag. The
// default-constructed token is INERT — it never reports cancellation and
// costs nothing to copy or check — so options structs can carry one by
// value without allocating. A real token (CancelToken::Create()) shares
// one atomic flag across copies: the server's session holds one side, the
// solver's hot loops poll the other. Cancellation is cooperative: loops
// check at node granularity (the branch-and-bound pop, SketchRefine's
// per-group solves), never mid-pivot, so a cancelled solve always leaves
// well-formed partial state ("iteration-limit-style", never corrupted).
//
// Deadline is a wall-clock cutoff in the same cooperative style, stored as
// seconds-from-construction so existing time_limit_s plumbing maps onto it
// directly.

#ifndef PB_COMMON_BUDGET_H_
#define PB_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <memory>

namespace pb {

/// Thread budget for a solve, shared by the MILP tree search and
/// SketchRefine's two-level fan-out.
struct ComputeBudget {
  /// Total threads the solve may occupy (>= 1; values < 1 read as 1).
  int threads = 1;
  /// Threads each branch-and-bound tree search gets. Only SketchRefine
  /// distinguishes this from `threads` (group-level fan-out times
  /// node-level tree parallelism); a plain MILP solve ignores it.
  int node_threads = 1;
};

/// A ComputeBudget thread count as used: values below 1 read as 1.
inline int ResolveThreads(int threads) { return threads < 1 ? 1 : threads; }

/// Copyable handle on a shared cancellation flag; see the file comment.
/// Thread-safe: any copy may request cancellation, any copy may poll.
class CancelToken {
 public:
  /// Inert token: cancel_requested() is always false, RequestCancel() is a
  /// no-op. The free default for options structs.
  CancelToken() = default;

  /// A live token backed by one shared flag (copies share it).
  static CancelToken Create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// True when this token can ever report cancellation.
  bool valid() const { return flag_ != nullptr; }

  void RequestCancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Wall-clock cutoff. Default-constructed: no deadline (never expired).
/// Copyable; copies share the same absolute cutoff instant.
class Deadline {
 public:
  Deadline() = default;

  /// Expires `seconds` from now. Non-finite or negative values mean an
  /// already-expired deadline when <= 0, no deadline when +infinity.
  static Deadline AfterSeconds(double seconds);

  bool has_deadline() const { return has_; }
  bool expired() const {
    return has_ && std::chrono::steady_clock::now() >= when_;
  }

  /// Seconds until expiry: +infinity without a deadline, clamped at 0
  /// once expired. Feed this into per-solve time_limit_s fields so a
  /// multi-solve pipeline (SketchRefine, enumeration) shares one budget.
  double SecondsRemaining() const;

 private:
  bool has_ = false;
  std::chrono::steady_clock::time_point when_{};
};

}  // namespace pb

#endif  // PB_COMMON_BUDGET_H_
