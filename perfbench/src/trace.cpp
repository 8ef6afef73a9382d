#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <mutex>

#include "serve/json.hpp"
#include "util/stopwatch.hpp"

namespace perfbench::trace {

namespace {

using fannet::serve::Json;

struct Event {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint64_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t item = 0;
  std::vector<std::pair<std::string, double>> args;
};

std::atomic<bool> on{false};
std::atomic<std::uint64_t> next_id{1};
std::atomic<std::uint64_t> next_tid{1};
const fannet::util::Stopwatch epoch;

std::mutex events_mutex;
std::vector<Event> events;  // guarded by events_mutex

thread_local std::vector<std::uint64_t> open_spans;

double now_us() { return epoch.seconds() * 1e6; }

std::uint64_t thread_number() {
  thread_local const std::uint64_t tid = next_tid.fetch_add(1);
  return tid;
}

void record(Event event) {
  const std::lock_guard<std::mutex> lock(events_mutex);
  events.push_back(std::move(event));
}

}  // namespace

void enable(bool value) { on.store(value); }
bool enabled() { return on.load(std::memory_order_relaxed); }

Span::Span(std::string_view name, std::uint64_t item, std::uint64_t parent) {
  if (!enabled()) return;
  id_ = next_id.fetch_add(1);
  parent_ = parent != kInherit       ? parent
            : open_spans.empty()     ? 0
                                     : open_spans.back();
  item_ = item;
  name_ = name;
  open_spans.push_back(id_);
  start_us_ = now_us();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end_us = now_us();
  if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
  record(Event{.name = std::move(name_),
               .start_us = start_us_,
               .dur_us = end_us - start_us_,
               .tid = thread_number(),
               .id = id_,
               .parent = parent_,
               .item = item_,
               .args = std::move(args_)});
}

void Span::arg(std::string_view key, double value) {
  if (id_ != 0) args_.emplace_back(std::string(key), value);
}

void counters(std::string_view name,
              const std::vector<std::pair<std::string, double>>& values) {
  if (!enabled()) return;
  Span span(name);
  for (const auto& [key, value] : values) span.arg(key, value);
}

std::size_t write_chrome(const std::string& path) {
  const std::lock_guard<std::mutex> lock(events_mutex);
  Json list = Json::array();
  for (const Event& e : events) {
    Json args = Json::object();
    args.set("id", Json::integer(static_cast<std::int64_t>(e.id)));
    args.set("parent", Json::integer(static_cast<std::int64_t>(e.parent)));
    args.set("item", Json::integer(static_cast<std::int64_t>(e.item)));
    for (const auto& [key, value] : e.args) args.set(key, Json::number(value));
    Json event = Json::object();
    event.set("name", Json::string(e.name));
    event.set("ph", Json::string("X"));
    event.set("ts", Json::number(e.start_us));
    event.set("dur", Json::number(e.dur_us));
    event.set("pid", Json::integer(1));
    event.set("tid", Json::integer(static_cast<std::int64_t>(e.tid)));
    event.set("args", std::move(args));
    list.push_back(std::move(event));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(list));
  root.set("displayTimeUnit", Json::string("ms"));
  std::ofstream out(path);
  out << root.dump() << '\n';
  return events.size();
}

}  // namespace perfbench::trace
