#include "core/replay.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "core/scheduler_factory.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_spec.hpp"
#include "util/atomic_file.hpp"

namespace ppg {

namespace {

constexpr char kMagic[8] = {'P', 'P', 'G', 'R', 'P', 'L', 'A', 'Y'};
/// v2 adds (trace_spec, has_traces) and makes the embedded multitrace
/// optional; v1 dumps (vectors always embedded) are still read.
constexpr std::uint32_t kVersion = 2;
/// Strings in a dump header are short (specs, error messages); anything
/// longer than this marks a corrupt file, not a real dump.
constexpr std::uint32_t kMaxStringLen = 1u << 20;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is)
    throw_error(ErrorCode::kCorruptTrace,
                std::string("replay dump truncated reading ") + what);
  return value;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is, const char* what) {
  const auto len = read_pod<std::uint32_t>(is, what);
  if (len > kMaxStringLen)
    throw_error(ErrorCode::kCorruptTrace,
                std::string("replay dump declares oversized string for ") +
                    what + " (" + std::to_string(len) + " bytes)");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  if (!is)
    throw_error(ErrorCode::kCorruptTrace,
                std::string("replay dump truncated reading ") + what);
  return s;
}

// Any byte that names no current ErrorCode (past the last one, or a
// retired number) is corrupt rather than a new enumerator.
ErrorCode read_error_code(std::istream& is) {
  const auto byte = read_pod<std::uint8_t>(is, "error code");
  const auto code = static_cast<ErrorCode>(byte);
  if (std::strcmp(error_code_name(code), "unknown") == 0)
    throw_error(ErrorCode::kCorruptTrace,
                "unknown replay dump error code " + std::to_string(byte));
  return code;
}

}  // namespace

void write_replay_dump(std::ostream& os, const ReplayDump& dump) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(dump.cache_size));
  write_pod(os, dump.miss_cost);
  write_pod(os, dump.max_time);
  write_pod(os, dump.seed);
  write_string(os, dump.scheduler_spec);
  write_pod(os, static_cast<std::uint8_t>(dump.reason.code));
  write_string(os, dump.reason.message);
  write_pod(os, dump.reason.proc);
  write_pod(os, dump.reason.time);
  write_pod(os, dump.reason.byte_offset);
  write_string(os, dump.trace_spec);
  write_pod(os, static_cast<std::uint8_t>(dump.has_traces ? 1 : 0));
  if (dump.has_traces) write_multitrace(os, dump.traces);
  if (!os) throw_error(ErrorCode::kIoError, "replay dump write failed");
}

ReplayDump read_replay_dump(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw_error(ErrorCode::kCorruptTrace, "bad replay dump magic");
  const auto version = read_pod<std::uint32_t>(is, "version");
  if (version < 1 || version > kVersion)
    throw_error(ErrorCode::kCorruptTrace,
                "unsupported replay dump version " + std::to_string(version));
  ReplayDump dump;
  dump.cache_size =
      static_cast<Height>(read_pod<std::uint64_t>(is, "cache_size"));
  dump.miss_cost = read_pod<Time>(is, "miss_cost");
  dump.max_time = read_pod<Time>(is, "max_time");
  dump.seed = read_pod<std::uint64_t>(is, "seed");
  dump.scheduler_spec = read_string(is, "scheduler_spec");
  dump.reason.code = read_error_code(is);
  dump.reason.message = read_string(is, "error message");
  dump.reason.proc = read_pod<ProcId>(is, "error proc");
  dump.reason.time = read_pod<Time>(is, "error time");
  dump.reason.byte_offset = read_pod<std::uint64_t>(is, "error offset");
  if (version >= 2) {
    dump.trace_spec = read_string(is, "trace_spec");
    dump.has_traces = read_pod<std::uint8_t>(is, "has_traces") != 0;
  }
  if (dump.has_traces) dump.traces = read_multitrace(is);
  return dump;
}

void save_replay_dump(const std::string& path, const ReplayDump& dump) {
  // Serialize to memory, publish atomically: a crash mid-dump must never
  // leave a torn .ppgreplay at the final path (the dump exists precisely
  // because something is already going wrong).
  std::ostringstream os;
  write_replay_dump(os, dump);
  atomic_write_file(path, os.str());
}

ReplayDump load_replay_dump(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw_error(ErrorCode::kIoError, "cannot open " + path, kNoOffset,
                       path);
  return read_replay_dump(is);
}

CheckedRun run_replay(const ReplayDump& dump,
                      const ValidatorConfig& validator) {
  auto inner = make_scheduler_from_spec(dump.scheduler_spec, dump.seed);
  auto validating = make_validating(std::move(inner), validator);
  EngineConfig config;
  config.cache_size = dump.cache_size;
  config.miss_cost = dump.miss_cost;
  config.max_time = dump.max_time;
  config.seed = dump.seed;
  config.scheduler_spec = dump.scheduler_spec;
  config.trace_spec = dump.trace_spec;
  if (dump.has_traces)
    return run_parallel_checked(dump.traces, *validating, config);
  if (dump.trace_spec.empty())
    throw_error(ErrorCode::kBadInput,
                "replay dump embeds neither traces nor a trace spec; the "
                "recorded run is not replayable");
  return run_parallel_checked(make_source_from_trace_spec(dump.trace_spec),
                              *validating, config);
}

}  // namespace ppg
