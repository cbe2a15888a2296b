// verify_server — batch front end of the verification service.
//
// Reads line-delimited request frames (svc/protocol) from a file or
// stdin, runs them through a VerifyService, and writes response frames
// in submission order. Pointing --in at a named pipe turns it into a
// long-running server; pointing it at a file makes a batch run (one
// command line, wrapped to fit):
//
//   verify_server --in requests.txt --out responses.txt --workers 4
//                 --cache-snapshot cache.rtvc --health
//
// Exit codes: 0 all frames processed, 1 bad usage, 2 protocol error.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "verify_server: error: " << message << '\n'
            << "usage: verify_server [--in FILE|-] [--out FILE|-] [--workers N]\n"
            << "         [--max-pending N] [--tenant-rate R] [--tenant-burst B]\n"
            << "         [--cache-snapshot FILE] [--chaos-seed N]\n"
            << "         [--chaos-stall-rate F] [--chaos-stall-ms N]\n"
            << "         [--chaos-fail-rate F] [--health]\n";
  std::exit(1);
}

std::string need_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) usage_error(flag + " requires a value");
  return argv[++i];
}

std::uint64_t parse_num(const std::string& value, const std::string& flag) {
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    usage_error(flag + ": not a number: '" + value + "'");
  }
}

double parse_real(const std::string& value, const std::string& flag) {
  try {
    return std::stod(value);
  } catch (const std::exception&) {
    usage_error(flag + ": not a number: '" + value + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path = "-";
  std::string out_path = "-";
  bool print_health = false;
  rtg::svc::ServiceOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--in") {
      in_path = need_value(argc, argv, i, arg);
    } else if (arg == "--out") {
      out_path = need_value(argc, argv, i, arg);
    } else if (arg == "--workers") {
      options.workers = parse_num(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--max-pending") {
      options.admission.max_pending = parse_num(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--tenant-rate") {
      options.admission.tenant_rate = parse_real(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--tenant-burst") {
      options.admission.tenant_burst = parse_real(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--cache-snapshot") {
      options.snapshot_path = need_value(argc, argv, i, arg);
    } else if (arg == "--chaos-seed") {
      options.chaos.seed = parse_num(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--chaos-stall-rate") {
      options.chaos.stall_rate = parse_real(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--chaos-stall-ms") {
      options.chaos.stall_ms =
          static_cast<std::uint32_t>(parse_num(need_value(argc, argv, i, arg), arg));
    } else if (arg == "--chaos-fail-rate") {
      options.chaos.fail_rate = parse_real(need_value(argc, argv, i, arg), arg);
    } else if (arg == "--health") {
      print_health = true;
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  std::ifstream in_file;
  if (in_path != "-") {
    in_file.open(in_path);
    if (!in_file) usage_error("cannot open input '" + in_path + "'");
  }
  std::istream& in = in_path == "-" ? std::cin : in_file;

  std::ofstream out_file;
  if (out_path != "-") {
    out_file.open(out_path, std::ios::trunc);
    if (!out_file) usage_error("cannot open output '" + out_path + "'");
  }
  std::ostream& out = out_path == "-" ? std::cout : out_file;

  try {
    rtg::svc::VerifyService service(options);

    std::vector<std::future<rtg::svc::JobResponse>> futures;
    while (auto request = rtg::svc::read_request(in)) {
      futures.push_back(service.submit(std::move(*request)));
    }
    for (auto& future : futures) {
      rtg::svc::write_response(out, future.get());
    }
    out.flush();
    service.shutdown();

    if (print_health) {
      const rtg::svc::ServiceHealth h = service.health();
      std::cerr << "verify_server: submitted=" << h.submitted
                << " completed=" << h.completed << " rejected=" << h.rejected
                << " deferred=" << h.deferred << " expired=" << h.expired
                << " invalid=" << h.invalid << " failed=" << h.failed
                << " retries=" << h.retries << " redeliveries=" << h.redeliveries
                << " stuck=" << h.stuck_worker_events
                << " degraded=" << h.degraded_jobs << " mode=" << h.mode
                << " cache[hits=" << h.cache_hits << " misses=" << h.cache_misses
                << " evictions=" << h.cache_evictions << " size=" << h.cache_size
                << "]\n";
      if (h.snapshot_load_failed) {
        std::cerr << "verify_server: warning: snapshot was corrupt; started cold\n";
      }
    }
  } catch (const rtg::svc::ProtocolError& e) {
    std::cerr << "verify_server: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "verify_server: error: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
