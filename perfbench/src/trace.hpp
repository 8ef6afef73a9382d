/// \file
/// \brief In-memory spans for the traced run, exported as Chrome
/// trace-event JSON (opens in Perfetto and chrome://tracing).
///
/// A span is one call into a layer's public function, recorded from the
/// benchmark's side: name, start, end, the span that caused it, the item it
/// belongs to, and numeric arguments (counts).  Spans stay in memory until
/// write_chrome() runs at exit.  With tracing off a Span does nothing, so
/// the untraced run executes the same code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench::trace {

void enable(bool on);
[[nodiscard]] bool enabled();

/// Parent marker: the innermost span open on the constructing thread.
inline constexpr std::uint64_t kInherit = ~std::uint64_t{0};

class Span {
 public:
  /// Opens a span.  `parent` names the causing span explicitly, which a
  /// span opened on another thread than its parent needs.
  explicit Span(std::string_view name, std::uint64_t item = 0,
                std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string_view key, double value);
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;  // 0 = not recording
  std::uint64_t parent_ = 0;
  std::uint64_t item_ = 0;
  double start_us_ = 0.0;
  std::string name_;
  std::vector<std::pair<std::string, double>> args_;
};

/// Turns recording off for its lifetime (oracle computations and other
/// work that is not part of the measured workload).
class Suspend {
 public:
  Suspend() : was_(enabled()) { enable(false); }
  ~Suspend() { enable(was_); }
  Suspend(const Suspend&) = delete;
  Suspend& operator=(const Suspend&) = delete;

 private:
  bool was_;
};

/// A zero-length span carrying counters, e.g. server statistics.
void counters(std::string_view name,
              const std::vector<std::pair<std::string, double>>& values);

/// Writes every recorded span to `path`; returns how many.
std::size_t write_chrome(const std::string& path);

}  // namespace perfbench::trace
