// fleet_config_check: loads each config file named on the command line
// through net::load_node_config, the parser evs_node uses, and prints one
// line per file:
//
//   ok <path> self=<site> peers=<n> groups=<n> shards=<n> store=<0|1>
//   error <path> <parser message>
//
// Exits 1 if any file fails to load. The benchmark's tests run it on the
// configs run.py generates.
#include <cstdio>
#include <string>

#include "net/config.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s CONFIG...\n", argv[0]);
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    evs::net::NodeConfig config;
    std::string error;
    if (!evs::net::load_node_config(argv[i], config, error)) {
      std::printf("error %s %s\n", argv[i], error.c_str());
      rc = 1;
      continue;
    }
    std::printf("ok %s self=%u peers=%zu groups=%zu shards=%zu store=%d\n",
                argv[i], config.self.value, config.peers.size(),
                config.groups.size(), config.log_shards().size(),
                config.store_dir.empty() ? 0 : 1);
  }
  return rc;
}
