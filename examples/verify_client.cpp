// verify_client — composes request frames for verify_server and
// summarizes its response streams. Each example below is one command
// line, wrapped to fit:
//
//   # append a verification request to a batch file
//   verify_client --spec control_system.rts --verify sched.txt
//                 --id 1 --tenant acme --deadline-ms 2000 --out requests.txt
//
//   # append a synthesis request (exact engine)
//   verify_client --spec control_system.rts --synth --exact --id 2
//                 --out requests.txt
//
//   # ship a captured .rtt trace to the tenant's streaming monitor
//   verify_client --spec control_system.rts --monitor capture.rtt --id 3
//                 --out requests.txt
//
//   # read back a response stream
//   verify_client --summarize responses.txt
//
// Exit codes: 0 success, 1 bad usage / unreadable file, 2 malformed
// response stream, 3 summarized stream contains failed/invalid jobs.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "svc/protocol.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "verify_client: error: " << message << '\n'
            << "usage: verify_client --spec FILE (--verify SCHED | --synth [--exact]"
            << " | --monitor RTT)\n"
            << "         [--id N] [--tenant NAME] [--deadline-ms N] [--out FILE|-]\n"
            << "       verify_client --summarize RSPFILE|-\n";
  std::exit(1);
}

std::string need_value(int argc, char** argv, int& i, const std::string& flag) {
  if (i + 1 >= argc) usage_error(flag + " requires a value");
  return argv[++i];
}

std::string read_file(const std::string& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) usage_error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int summarize(const std::string& path) {
  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) usage_error("cannot open '" + path + "'");
  }
  std::istream& in = path == "-" ? std::cin : file;
  std::size_t bad = 0;
  try {
    while (auto rsp = rtg::svc::read_response(in)) {
      std::cout << "job " << rsp->id << ": " << rtg::svc::job_status_name(rsp->status)
                << " verdict=" << (rsp->verdict ? "yes" : "no")
                << (rsp->cached ? " (cached)" : "")
                << (rsp->degraded ? " (degraded)" : "");
      if (rsp->status == rtg::svc::JobStatus::kRejected) {
        std::cout << " retry_after_ms=" << rsp->retry_after_ms;
      }
      std::cout << " queue_ms=" << rsp->queue_ms << " run_ms=" << rsp->run_ms << '\n';
      if (rsp->status == rtg::svc::JobStatus::kFailed ||
          rsp->status == rtg::svc::JobStatus::kInvalid) {
        ++bad;
      }
    }
  } catch (const rtg::svc::ProtocolError& e) {
    std::cerr << "verify_client: " << e.what() << '\n';
    return 2;
  }
  return bad == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  rtg::svc::JobRequest req;
  std::string spec_path;
  std::string sched_path;
  std::string trace_path;
  std::string out_path = "-";
  std::string summarize_path;
  bool synth = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      spec_path = need_value(argc, argv, i, arg);
    } else if (arg == "--verify") {
      sched_path = need_value(argc, argv, i, arg);
    } else if (arg == "--synth") {
      synth = true;
    } else if (arg == "--exact") {
      req.exact = true;
    } else if (arg == "--monitor") {
      trace_path = need_value(argc, argv, i, arg);
    } else if (arg == "--id") {
      try {
        req.id = std::stoull(need_value(argc, argv, i, arg));
      } catch (const std::exception&) {
        usage_error("--id: not a number");
      }
    } else if (arg == "--tenant") {
      req.tenant = need_value(argc, argv, i, arg);
    } else if (arg == "--deadline-ms") {
      try {
        req.deadline_ms = std::stoull(need_value(argc, argv, i, arg));
      } catch (const std::exception&) {
        usage_error("--deadline-ms: not a number");
      }
    } else if (arg == "--out") {
      out_path = need_value(argc, argv, i, arg);
    } else if (arg == "--summarize") {
      summarize_path = need_value(argc, argv, i, arg);
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }

  if (!summarize_path.empty()) return summarize(summarize_path);

  if (spec_path.empty()) usage_error("--spec is required");
  const int modes = (!sched_path.empty() ? 1 : 0) + (synth ? 1 : 0) +
                    (!trace_path.empty() ? 1 : 0);
  if (modes != 1) {
    usage_error("exactly one of --verify, --synth, --monitor is required");
  }

  req.spec = read_file(spec_path, /*binary=*/false);
  if (!sched_path.empty()) {
    req.kind = rtg::svc::JobKind::kVerify;
    req.schedule = read_file(sched_path, /*binary=*/false);
  } else if (synth) {
    req.kind = rtg::svc::JobKind::kSynthesize;
  } else {
    req.kind = rtg::svc::JobKind::kMonitor;
    req.trace = read_file(trace_path, /*binary=*/true);
  }

  std::ofstream out_file;
  if (out_path != "-") {
    out_file.open(out_path, std::ios::app);
    if (!out_file) usage_error("cannot open '" + out_path + "'");
  }
  std::ostream& out = out_path == "-" ? std::cout : out_file;
  rtg::svc::write_request(out, req);
  return 0;
}
