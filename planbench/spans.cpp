#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iomanip>
#include <memory>
#include <mutex>

namespace planbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_request{0};
std::atomic<std::uint32_t> g_next_thread{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanEvent> events;
};

// Buffers outlive their threads: the registry owns them, the thread keeps a
// raw pointer. Collect() runs after the traced work has finished, so no
// thread appends while the buffers are drained.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    Buffers().push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

thread_local std::uint64_t t_current = 0;

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SpanRecorder::Enable(bool enabled) noexcept {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpanRecorder::Enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void SpanRecorder::SetRequest(std::uint64_t request) noexcept {
  g_request.store(request, std::memory_order_relaxed);
}

std::vector<SpanEvent> SpanRecorder::Collect() {
  std::vector<SpanEvent> all;
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : Buffers()) {
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
      buffer->events.clear();
    }
  }
  std::sort(all.begin(), all.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

Span::Span(const char* name) noexcept {
  if (!SpanRecorder::Enabled()) return;
  event_.name = name;
  event_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  event_.parent = t_current;
  event_.request = g_request.load(std::memory_order_relaxed);
  saved_current_ = t_current;
  t_current = event_.id;
  event_.start_ns = NowNs();
}

Span::~Span() {
  if (event_.id == 0) return;
  event_.end_ns = NowNs();
  t_current = saved_current_;
  ThreadBuffer& buffer = LocalBuffer();
  event_.thread = buffer.thread;
  buffer.events.push_back(event_);
}

std::map<std::uint64_t, std::int64_t> SelfTimesNs(const std::vector<SpanEvent>& events) {
  std::map<std::uint64_t, const SpanEvent*> by_id;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanEvent& e : events) by_id[e.id] = &e;
  for (const SpanEvent& e : events) {
    const auto parent = by_id.find(e.parent);
    if (parent == by_id.end()) continue;
    const std::int64_t lo = std::max(e.start_ns, parent->second->start_ns);
    const std::int64_t hi = std::min(e.end_ns, parent->second->end_ns);
    if (hi > lo) children[e.parent].emplace_back(lo, hi);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const SpanEvent& e : events) {
    std::int64_t covered = 0;
    auto it = children.find(e.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_lo = intervals.front().first;
      std::int64_t run_hi = intervals.front().second;
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_hi) {
          covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      covered += run_hi - run_lo;
    }
    self[e.id] = (e.end_ns - e.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByNameNs(const std::vector<SpanEvent>& events) {
  const auto self = SelfTimesNs(events);
  std::map<std::string, std::int64_t> by_name;
  for (const SpanEvent& e : events) by_name[e.name] += self.at(e.id);
  return by_name;
}

void WriteChromeTrace(const std::vector<SpanEvent>& events, std::ostream& out) {
  const std::int64_t origin = events.empty() ? 0 : events.front().start_ns;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    const std::string name = e.name;
    const std::string category = name.substr(0, name.find('.'));
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << name << "\",\"cat\":\"" << category
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread
        << ",\"ts\":" << static_cast<double>(e.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(e.end_ns - e.start_ns) / 1e3
        << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
        << ",\"request\":" << e.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace planbench
