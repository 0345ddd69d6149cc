#include "util/fault.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "util/numeric.hpp"
#include "util/progress.hpp"

namespace autosec::util::fault {

namespace {

// Bits of the combined fast-path flag word: one relaxed load answers both
// "is anything armed?" and "is poll accounting on?".
constexpr uint8_t kArmed = 1;
constexpr uint8_t kAccounting = 2;

struct ArmedSite {
  std::string name;
  uint64_t fire_on_visit = 1;  // 1-based visit index that fires
  uint64_t visits = 0;
  bool fired = false;
};

struct Registry {
  std::atomic<uint8_t> flags{0};
  std::atomic<uint64_t> polls{0};
  std::mutex mutex;
  std::vector<ArmedSite> sites;

  Registry() {
    if (const char* spec = std::getenv("AUTOSEC_FAULT")) {
      // Environment arming happens before any engine work; a malformed spec
      // must fail loudly, not silently run without the fault.
      arm_locked(spec);
    }
  }

  void arm_locked(const std::string& spec) {
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string field = spec.substr(pos, comma - pos);
      pos = comma + 1;
      if (field.empty()) continue;
      const size_t colon = field.find(':');
      const std::string name = field.substr(0, colon);
      uint64_t nth = 1;
      if (colon != std::string::npos) {
        const std::string count = field.substr(colon + 1);
        const std::optional<int64_t> parsed = util::parse_int(count);
        if (!parsed || *parsed < 1) {
          throw std::invalid_argument("AUTOSEC_FAULT: bad count '" + count + "'");
        }
        nth = static_cast<uint64_t>(*parsed);
      }
      bool known = false;
      for (const std::string& site : known_sites()) {
        if (site == name) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw std::invalid_argument("AUTOSEC_FAULT: unknown site '" + name + "'");
      }
      set_site(name, nth);
    }
    refresh_flags();
  }

  void set_site(const std::string& name, uint64_t nth) {
    for (ArmedSite& site : sites) {
      if (site.name == name) {
        site.fire_on_visit = nth;
        site.visits = 0;
        site.fired = false;
        return;
      }
    }
    sites.push_back({name, nth, 0, false});
  }

  void refresh_flags() {
    bool any = false;
    for (const ArmedSite& site : sites) any = any || !site.fired;
    uint8_t expected = flags.load(std::memory_order_relaxed);
    uint8_t updated;
    do {
      updated = static_cast<uint8_t>((expected & kAccounting) | (any ? kArmed : 0));
    } while (!flags.compare_exchange_weak(expected, updated,
                                          std::memory_order_relaxed));
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

bool triggered(const char* site) {
  // Every fault poll is an engine safepoint: bump the process-wide progress
  // epoch so the serving watchdog can distinguish hung from slow.
  progress::bump();
  Registry& reg = registry();
  const uint8_t flags = reg.flags.load(std::memory_order_relaxed);
  if (flags & kAccounting) reg.polls.fetch_add(1, std::memory_order_relaxed);
  if (!(flags & kArmed)) return false;

  std::lock_guard<std::mutex> lock(reg.mutex);
  for (ArmedSite& armed : reg.sites) {
    if (armed.fired || armed.name != site) continue;
    armed.visits += 1;
    if (armed.visits < armed.fire_on_visit) return false;
    armed.fired = true;  // one-shot: the process keeps working after the hit
    reg.refresh_flags();
    return true;
  }
  return false;
}

void arm_site(const std::string& site, uint64_t nth) {
  if (nth == 0) throw std::invalid_argument("fault::arm_site: nth must be >= 1");
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.set_site(site, nth);
  reg.refresh_flags();
}

void arm(const std::string& spec) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.arm_locked(spec);
}

void disarm_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.sites.clear();
  reg.refresh_flags();
}

const std::vector<std::string>& known_sites() {
  // One entry per engine poll point; keep docs/robustness.md's cookbook table
  // in sync when adding a site.
  static const std::vector<std::string> sites = {
      "explore.alloc",       // explorer: allocation failure mid-BFS
      "uniformize.alloc",    // uniformization: transposed-matrix allocation
      "solve.cancel",        // session: cancellation at the solve boundary
      "solve.hang",          // session: hang (no safepoint crossed) at solve
      "krylov.breakdown",    // BiCGSTAB reports breakdown (forces rung 2)
      "gauss_seidel.diverge",  // Gauss-Seidel reports divergence (last rung)
      "serve.dispatch.alloc",  // serve: allocation failure before dispatch
  };
  return sites;
}

void set_accounting(bool enabled) {
  Registry& reg = registry();
  uint8_t expected = reg.flags.load(std::memory_order_relaxed);
  uint8_t updated;
  do {
    updated = static_cast<uint8_t>(enabled ? (expected | kAccounting)
                                           : (expected & ~kAccounting));
  } while (!reg.flags.compare_exchange_weak(expected, updated,
                                            std::memory_order_relaxed));
}

uint64_t poll_count() {
  return registry().polls.load(std::memory_order_relaxed);
}

void reset_poll_count() {
  registry().polls.store(0, std::memory_order_relaxed);
}

}  // namespace autosec::util::fault
