#pragma once
// Span recorder local to the plan-search benchmark. A span marks one call
// from the benchmark into a layer's public function: name, start, end, the
// span that caused it, and a request id shared by every span of one search.
// Spans go to a thread-local buffer (no lock on the hot path) and stay in
// memory until Collect(), which the benchmark calls once at the end of a
// traced run. Recording is off unless Enable(true): an untraced run pays one
// relaxed atomic load per span site.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace planbench {

struct SpanEvent {
  const char* name = "";  // static string: layer-qualified, e.g. "graph.encode"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // search id shared by all spans of one search
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static void Enable(bool enabled) noexcept;
  [[nodiscard]] static bool Enabled() noexcept;
  /// Request id stamped on spans opened from now on (0 = none).
  static void SetRequest(std::uint64_t request) noexcept;
  /// Every recorded span of every thread, in start order; clears the buffers.
  [[nodiscard]] static std::vector<SpanEvent> Collect();
};

/// RAII span whose parent is the innermost open span on this thread. A
/// disabled recorder makes this a no-op.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanEvent event_;
  std::uint64_t saved_current_ = 0;
};

/// Self time of each span, in ns: its duration minus the union of its
/// children's intervals clipped to it. Children may nest and may overlap
/// each other (parallel children on other threads); overlapping time is
/// subtracted once.
[[nodiscard]] std::map<std::uint64_t, std::int64_t> SelfTimesNs(
    const std::vector<SpanEvent>& events);

/// Sum of self time per span name, in ns.
[[nodiscard]] std::map<std::string, std::int64_t> SelfTimeByNameNs(
    const std::vector<SpanEvent>& events);

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps),
/// loadable in chrome://tracing and Perfetto.
void WriteChromeTrace(const std::vector<SpanEvent>& events, std::ostream& out);

}  // namespace planbench
