#include "obs/dump.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/log.hpp"

namespace evs::obs {

std::string trace_out_dir() {
  const char* dir = std::getenv("EVS_TRACE_OUT");
  return dir == nullptr ? std::string{} : std::string{dir};
}

namespace {

/// Replaces `path` whole or not at all: `fill` writes a temporary file
/// that is then renamed over `path`, so a node killed mid-dump (the
/// periodic --trace-flush-ms dumps exist for kill -9) keeps its last
/// complete dump instead of a truncated one.
template <typename Fill>
bool replace_file(const std::string& path, Fill&& fill) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) return false;
    fill(os);
    if (!os.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

bool dump_run(const TraceBus& bus, const MetricsRegistry& metrics,
              const std::string& name) {
  const std::string dir = trace_out_dir();
  if (dir.empty()) return false;
  const std::string stem = dir + "/" + name;

  if (!replace_file(stem + ".trace.jsonl",
                    [&](std::ostream& os) { bus.write_jsonl(os); })) {
    EVS_WARN("dump_run: cannot write into EVS_TRACE_OUT dir " << dir);
    return false;
  }
  replace_file(stem + ".chrome.json",
               [&](std::ostream& os) { bus.write_chrome_trace(os); });
  replace_file(stem + ".metrics.json",
               [&](std::ostream& os) { os << metrics.to_json() << "\n"; });
  // Same snapshot in Prometheus text exposition, so scrape configs and
  // dump files share one format (checked by the CI smoke).
  replace_file(stem + ".metrics.prom",
               [&](std::ostream& os) { os << metrics.to_prometheus(); });
  EVS_INFO("dump_run: wrote " << stem
                              << ".{trace.jsonl,chrome.json,metrics.json,"
                                 "metrics.prom} ("
                              << bus.recorded() << " events, " << bus.dropped()
                              << " dropped)");
  return true;
}

}  // namespace evs::obs
