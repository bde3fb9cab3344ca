#ifndef P2DRM_SIM_VIRTUAL_CLOCK_H_
#define P2DRM_SIM_VIRTUAL_CLOCK_H_

/// \file virtual_clock.h
/// \brief The unified virtual timebase and its discrete-event scheduler.
///
/// Before this file existed the repo kept three unrelated notions of
/// simulated time: core::SimClock seconds (license expiry), the
/// Transport's private microsecond accumulator (wire latency), and
/// per-worker sim clocks (service time). sim::VirtualClock is the
/// one microsecond-resolution timebase they all now read and advance:
///
///  * core::SimClock is a seconds *view* over a VirtualClock (owned or
///    shared), so advancing rental expiry advances the same time wire
///    costs accrue into.
///  * net::Transport charges every LatencyModel cost into its bound
///    VirtualClock (keeping a separate per-transport meter for the RT-2
///    accounting).
///  * sim::EventLoop schedules work at virtual instants, which is what
///    lets a bench honor multi-second retry-after hints, rental windows
///    or arrival ramps without a single wall-clock sleep.
///
/// Determinism contract (docs/simulation.md): VirtualClock and EventLoop
/// are single-threaded by design — one driving thread advances time and
/// runs events. Events firing at the same virtual instant run in
/// schedule order (sequence-number tie-break), so a fixed seed replays
/// an identical event interleaving run after run.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace p2drm {
namespace sim {

/// a + b without wrapping — instants and costs saturate at "forever"
/// across the whole timebase API (a saturated cost must pin the
/// schedule, not wrap an event into the immediate present).
inline std::uint64_t SaturatingAddUs(std::uint64_t a, std::uint64_t b) {
  return a > ~std::uint64_t{0} - b ? ~std::uint64_t{0} : a + b;
}

/// Microsecond-resolution virtual time. Absolute values are microseconds
/// since the Unix epoch so the seconds view (NowEpochSeconds) matches
/// core::SimClock's historical default start of 1'700'000'000.
class VirtualClock {
 public:
  static constexpr std::uint64_t kDefaultStartEpochSeconds =
      1'700'000'000ull;
  static constexpr std::uint64_t kUsPerSecond = 1'000'000ull;

  explicit VirtualClock(
      std::uint64_t start_epoch_s = kDefaultStartEpochSeconds)
      : now_us_(SecondsToUsSaturating(start_epoch_s)) {}

  std::uint64_t NowUs() const { return now_us_; }
  std::uint64_t NowEpochSeconds() const { return now_us_ / kUsPerSecond; }

  /// Advances by \p us (saturating at the representable maximum, so a
  /// runaway latency charge can never wrap time backwards).
  void AdvanceUs(std::uint64_t us) { now_us_ = SaturatingAddUs(now_us_, us); }
  void AdvanceSeconds(std::uint64_t s) {
    AdvanceUs(SecondsToUsSaturating(s));
  }

  /// Moves forward to \p t_us; never moves backwards (monotonicity is
  /// what the event loop's ordering guarantee rests on).
  void AdvanceToUs(std::uint64_t t_us) {
    if (t_us > now_us_) now_us_ = t_us;
  }

  /// Absolute jump, forwards or backwards — the escape hatch
  /// core::SimClock::Set has always offered tests. Not for use while an
  /// EventLoop holds pending events.
  void SetEpochSeconds(std::uint64_t epoch_s) {
    now_us_ = SecondsToUsSaturating(epoch_s);
  }

 private:
  /// Seconds -> microseconds without wrapping: a "never" sentinel like
  /// ~0ull must land at the maximum, not rewind time (the same contract
  /// AdvanceUs keeps).
  static std::uint64_t SecondsToUsSaturating(std::uint64_t s) {
    return s > ~std::uint64_t{0} / kUsPerSecond ? ~std::uint64_t{0}
                                                : s * kUsPerSecond;
  }

  std::uint64_t now_us_;
};

/// Discrete-event scheduler over a VirtualClock.
///
/// Events are closures scheduled at absolute virtual instants; running
/// one advances the clock to its instant first. Ties break by schedule
/// order (monotonic sequence number), never by heap internals, so the
/// execution order is a pure function of the schedule calls.
class EventLoop {
 public:
  using Event = std::function<void()>;

  explicit EventLoop(VirtualClock* clock) : clock_(clock) {}

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Schedules \p fn at virtual instant \p at_us (clamped to now: the
  /// past is not schedulable). Returns the event's sequence number.
  std::uint64_t ScheduleAt(std::uint64_t at_us, Event fn);

  /// Schedules \p fn \p delay_us after the current instant (saturating:
  /// a "forever" delay lands at the maximum instant, it never wraps).
  std::uint64_t ScheduleAfter(std::uint64_t delay_us, Event fn) {
    return ScheduleAt(SaturatingAddUs(clock_->NowUs(), delay_us),
                      std::move(fn));
  }

  /// Runs the earliest pending event (advancing the clock to it).
  /// Returns false when nothing is pending.
  bool RunNext();

  /// Runs pending events up to and including instant \p t_us, then
  /// advances the clock to \p t_us. Returns the number run.
  std::uint64_t RunUntil(std::uint64_t t_us);

  /// Runs until no event is pending (events may schedule more events).
  /// Returns the number run.
  std::uint64_t RunUntilIdle();

  std::size_t PendingCount() const { return heap_.size(); }
  bool Idle() const { return heap_.empty(); }
  std::uint64_t ExecutedCount() const { return executed_; }
  VirtualClock* clock() const { return clock_; }

 private:
  struct Entry {
    std::uint64_t at_us;
    std::uint64_t seq;
    // Shared-ptr wrapper keeps Entry copyable for priority_queue while
    // the closure itself is move-only capable.
    std::shared_ptr<Event> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at_us != b.at_us) return a.at_us > b.at_us;
      return a.seq > b.seq;  // earlier schedule runs first
    }
  };

  VirtualClock* clock_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace sim
}  // namespace p2drm

#endif  // P2DRM_SIM_VIRTUAL_CLOCK_H_
