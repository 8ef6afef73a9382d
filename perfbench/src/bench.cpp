#include "bench.hpp"

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kWrong: return "wrong";
    case Outcome::kError: return "error";
    case Outcome::kSaturated: return "saturated";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kResourceLimited: return "resource_limited";
  }
  return "?";
}

void ItemLog::append(const ItemLog& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  outcomes.insert(outcomes.end(), other.outcomes.begin(), other.outcomes.end());
}

void RunResult::mismatch(std::string what) {
  // The first few findings are enough to debug; the count is in the items.
  if (mismatches.size() < 20) mismatches.push_back(std::move(what));
}

void Digest::add(std::int64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

double timed_rounds(double seconds,
                    const std::function<double(std::size_t)>& round) {
  double timed = 0.0;
  for (std::size_t r = 0; timed < seconds; ++r) timed += round(r);
  return timed;
}

ItemSpool::ItemSpool(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w+b")) {
  if (file_ == nullptr) throw std::runtime_error("cannot open spool " + path);
}

ItemSpool::~ItemSpool() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
}

void ItemSpool::add(const ItemLog& log) {
  // A block is its item count, its latencies, then its outcomes.
  const std::size_t n = log.latency_ms.size();
  if (std::fwrite(&n, sizeof n, 1, file_) != 1 ||
      std::fwrite(log.latency_ms.data(), sizeof(double), n, file_) != n ||
      std::fwrite(log.outcomes.data(), sizeof(Outcome), n, file_) != n) {
    throw std::runtime_error("cannot write spool " + path_);
  }
}

ItemLog ItemSpool::read_back() {
  std::rewind(file_);
  ItemLog all;
  for (std::size_t n = 0; std::fread(&n, sizeof n, 1, file_) == 1;) {
    ItemLog block;
    block.latency_ms.resize(n);
    block.outcomes.resize(n);
    if (std::fread(block.latency_ms.data(), sizeof(double), n, file_) != n ||
        std::fread(block.outcomes.data(), sizeof(Outcome), n, file_) != n) {
      throw std::runtime_error("corrupt spool " + path_);
    }
    all.append(block);
  }
  return all;
}

bool setup_done(const Args& args) {
  if (!args.setup_only) return false;
  std::printf("ready\n");
  std::fflush(stdout);
  return true;
}

void pin_to_cpus(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      --count;
    }
  }
  if (::sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets VmHWM to the current resident size
  // (Linux 4.0 and later).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
