// The repository benchmark's workload program (see perfbench/README.md).
//
// One process runs one workload against the ring machine library, driving
// it only through its public calls, and prints a human report followed by
// one `RESULT {...}` JSON line that perfbench/run.py turns into the
// benchmark's result. Workloads:
//
//   serve_short   kasm submissions to a Server: open loop at a fixed
//                 offered rate, then a closed-loop capacity phase;
//   serve_images  the same, but every submission is a mid-run snapshot;
//   long_run      a handful of multi-million-instruction guests run to
//                 completion through Machine::Run, closed loop, one thread.
//
// Every operation's outcome (status, exit code, simulated cycles and
// fingerprint) is checked against a reference computed at set-up by an
// uninterrupted Machine::Run with the host fast path, block engine and
// chaining off. Every end-to-end time is scaled to a reference host speed
// by a calibration kernel that runs between the timed operations (see
// Calibration); the raw times are reported beside the scaled ones. With
// --trace 1 the run is split into an untraced and a traced pass; the traced pass records spans around every public call
// (replaying each serve submission through the layers in the server's
// order) and yields the per-layer ledger.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/base/xorshift.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/golden_image.h"
#include "src/fuzz/generator.h"
#include "src/kasm/assembler.h"
#include "src/serve/server.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kMaxCycles = 100'000'000;  // ServeConfig::default_max_cycles

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ledger: %s\n", message.c_str());
  std::exit(2);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// CPU time of the calling thread. On a shared host it leaves out the time
// the thread waited for a core (other tenants, hypervisor steal), which wall
// time counts; for single-threaded work that never blocks, the two agree on
// an idle host.
double ThreadCpuMs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

// --- workload sizes ----------------------------------------------------------

// Everything a workload's size depends on. `tiny` is the self-test scale:
// every phase and metric runs, on a few small inputs.
struct Scale {
  size_t pool = 48;          // distinct serve guests
  // Generated guests the pool is stratified from. Fewer give noisier size
  // quantiles: at 144 the traffic-weighted instructions per submission
  // varied by about 10% between seeds, at 432 by about 3%.
  size_t candidates = 432;
  size_t killed = 8;         // pool guests that end in a ring violation
  double short_rate = 100;   // serve_short offered submissions / s
  double image_rate = 12;    // serve_images offered submissions / s
  size_t short_segment = 1000;  // closed-loop submissions per server
  size_t image_segment = 40;
  size_t image_warmup = 6;   // image submissions in the serve warm-up
  int setups = 5;            // serve set-up repetitions behind setup_s
  int long_setups = 25;      // long_run set-ups take milliseconds each
  uint64_t long_insns = 2'000'000;  // target instructions per long_run guest
};

Scale TinyScale() {
  Scale s;
  s.pool = 6;
  s.candidates = 18;
  s.killed = 1;
  s.short_rate = 100;
  s.image_rate = 10;
  s.short_segment = 50;
  s.image_segment = 4;
  s.image_warmup = 2;
  s.setups = 2;
  s.long_setups = 2;
  s.long_insns = 40'000;
  return s;
}

// Fixed by the benchmark, not the host. One worker leaves the generator
// (this thread) a core on any host with two, and keeps capacity a
// single-core figure: shared hosts hand a process between 1 and nproc
// cores from one minute to the next, and a multi-worker capacity would
// measure that instead of the server.
constexpr int kWorkers = 1;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Xorshift rng(seed * 0x100000001B3ull + stream);
  return rng.Next();
}

// --- statistics --------------------------------------------------------------

// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- host context ------------------------------------------------------------

uint64_t SpinWork(uint64_t iterations) {
  Xorshift rng(iterations);
  uint64_t acc = 0;
  for (uint64_t i = 0; i < iterations; ++i) {
    acc += rng.Next() >> 60;
  }
  return acc;
}

// The same fixed spin on 1 thread and on nproc threads at once:
// nproc * t1 / tN is how many cores the process really gets.
double EffectiveParallelism(uint64_t iterations) {
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::atomic<uint64_t> sink{0};
  const auto t0 = Clock::now();
  sink += SpinWork(iterations);
  const auto t1 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink, iterations] { sink += SpinWork(iterations); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const auto t2 = Clock::now();
  return Ratio(nproc * MsBetween(t0, t1), MsBetween(t1, t2));
}

// --- host-speed calibration ------------------------------------------------

// A fixed piece of the same kind of work as the simulator's decode-execute
// loop, in the benchmark's own code: a toy interpreter dispatching through
// an 8-way switch over a random byte program, loading and storing at
// random into a 256 KiB table (the caller's, and already in the cache).
constexpr size_t kCalibrationTable = 32768;  // words

uint64_t CalibrationKernel(uint64_t steps, uint64_t* table) {
  constexpr size_t kProgram = 4096;
  static const std::vector<uint8_t> program = [] {
    Xorshift rng(0xCA11B);
    std::vector<uint8_t> p(kProgram);
    for (uint8_t& op : p) {
      op = static_cast<uint8_t>(rng.Below(8));
    }
    return p;
  }();
  uint64_t a = 1;
  uint64_t b = 2;
  size_t pc = 0;
  for (uint64_t i = 0; i < steps; ++i) {
    switch (program[pc]) {
      case 0: a += table[b % kCalibrationTable]; break;
      case 1: table[a % kCalibrationTable] = b; break;
      case 2: b ^= a << 3; break;
      case 3: pc = (a & 1) != 0 ? (pc + 7) % kProgram : pc; break;
      case 4: a = a * 0x9E3779B97F4A7C15ull + b; break;
      case 5: b = table[(a >> 7) % kCalibrationTable] + 1; break;
      case 6:
        if ((b & 2) != 0) {
          a ^= b;
        } else {
          b += a;
        }
        break;
      default: a = (a >> 1) | (b << 63); break;
    }
    pc = (pc + 1) % kProgram;
  }
  return a + b;
}

// A shared host changes speed: on a 4-vCPU Intel Xeon VM, by +-20% within
// a minute (a fixed spin, timed second by second, drifted from 5.4 to 4.4
// ms and back), far more than the bounds a later change is judged by. So
// every end-to-end time is scaled to a reference speed: the calibration
// kernel runs between the timed operations all through the run, and a time
// measured at `when` is multiplied by
//
//     (kReferenceMs / median kernel time of the samples nearest `when`)^kElasticity.
//
// The kernel runs none of the program's code, and its table is rewritten
// (so brought into the cache) before each timed run, so a change to the
// program under test does not move it. The raw times are reported beside
// the scaled ones.
class Calibration {
 public:
  static constexpr uint64_t kSteps = 200'000;
  // kSteps at the reference speed: about the middle of the drift of that
  // 4-vCPU Xeon VM (2.0-3.0 ms), so scaled times read close to raw ones.
  static constexpr double kReferenceMs = 2.5;
  // How much the simulator's time moves with the kernel's as the host
  // drifts, measured on that VM over a 4-minute long_run: per 12-guest
  // round, op time varied by 16% (coefficient of variation); scaled by the
  // kernel's time to the power 1, 8.5% remained; to the power 1.5, 6.5%;
  // over 30-second blocks, 1.7%. The serve workloads moved about as much
  // (1.8). Its working set in the cache is larger than the kernel's, and
  // it suffers more from the neighbours that slow both.
  static constexpr double kElasticity = 1.5;
  static constexpr size_t kNearest = 7;

  Calibration() : table_(kCalibrationTable) {}

  // One timed run of the kernel: thread CPU time when `cpu` (for work that
  // is timed the same way), else wall time.
  void Sample(bool cpu) {
    std::fill(table_.begin(), table_.end(), 0x9E3779B97F4A7C15ull);
    const auto when = Clock::now();
    const double c0 = cpu ? ThreadCpuMs() : 0;
    sink_ = sink_ + CalibrationKernel(kSteps, table_.data());
    const double ms = cpu ? ThreadCpuMs() - c0 : MsBetween(when, Clock::now());
    samples_.push_back({when, ms});
  }

  // The factor that scales a time measured at `when` to the reference speed.
  double Factor(Clock::time_point when) const {
    if (samples_.empty()) {
      Die("calibration has no samples");
    }
    std::vector<std::pair<double, double>> by_distance;  // (distance, ms)
    for (const auto& [at, ms] : samples_) {
      by_distance.emplace_back(std::abs(MsBetween(at, when)), ms);
    }
    const size_t k = std::min(kNearest, by_distance.size());
    std::partial_sort(by_distance.begin(), by_distance.begin() + static_cast<long>(k),
                      by_distance.end());
    std::vector<double> nearest;
    for (size_t i = 0; i < k; ++i) {
      nearest.push_back(by_distance[i].second);
    }
    return std::pow(kReferenceMs / Percentile(nearest, 0.5), kElasticity);
  }

  double MedianMs() const {
    std::vector<double> ms;
    for (const auto& sample : samples_) {
      ms.push_back(sample.second);
    }
    return Percentile(ms, 0.5);
  }
  size_t size() const { return samples_.size(); }

 private:
  std::vector<uint64_t> table_;
  std::vector<std::pair<Clock::time_point, double>> samples_;
  volatile uint64_t sink_ = 0;
};

// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
// which keeps the high-water mark of the parent that forked this process,
// VmHWM belongs to the address space exec created.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    Die("cannot read /proc/self/status");
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr &&
         std::sscanf(line, "VmHWM: %llu kB", &kib) != 1) {
  }
  std::fclose(f);
  if (kib == 0) {
    Die("no VmHWM in /proc/self/status");
  }
  return static_cast<double>(kib) / 1024.0;
}

// --- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  uint64_t op = 0;
  int parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  double ms() const { return end_ms - start_ms; }
};

// Spans recorded from this thread only, kept in memory until the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const char* name, uint64_t op) {
    spans_.push_back(Span{name, op, open_.empty() ? -1 : open_.back(), Now(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ms = Now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return MsBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// A span around one scope; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

struct SpanTotals {
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += span.ms();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].ms();
    t.self_ms += spans[i].ms() - child_ms[i];
  }
  return totals;
}

// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_ms * 1000, s.ms() * 1000, i, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::string SelfTimeTable(const std::map<std::string, SpanTotals>& totals) {
  std::string out = "  span                      count    total_ms     self_ms\n";
  for (const auto& [name, t] : totals) {
    out += StrFormat("  %-24s %6zu %11.3f %11.3f\n", name.c_str(), t.count, t.total_ms,
                     t.self_ms);
  }
  return out;
}

// --- outcomes and references -------------------------------------------------

struct Outcome {
  ServeStatus status = ServeStatus::kQueued;
  int exit_code = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t fingerprint = 0;

  bool operator==(const Outcome& o) const {
    return status == o.status && exit_code == o.exit_code && cycles == o.cycles &&
           instructions == o.instructions && fingerprint == o.fingerprint;
  }
};

// What the server reports for a machine that stopped after `idle` — the
// same classification as its retirement step: a guest killed by a ring
// violation is an expected `failed`/111, not a benchmark failure.
Outcome OutcomeOf(const Machine& machine, bool idle) {
  Outcome out;
  out.status = idle ? ServeStatus::kCompleted : ServeStatus::kBudgetExceeded;
  for (const auto& process : machine.supervisor().processes()) {
    if (process->state == ProcessState::kExited) {
      out.exit_code = std::max(out.exit_code, static_cast<int>(process->exit_code & 0xFF));
    } else {
      out.exit_code = 111;
      if (out.status == ServeStatus::kCompleted) {
        out.status = ServeStatus::kFailed;
      }
    }
  }
  if (out.status != ServeStatus::kCompleted && out.exit_code == 0) {
    out.exit_code = 111;
  }
  out.cycles = machine.cpu().cycles();
  out.instructions = machine.cpu().counters().instructions;
  out.fingerprint = FingerprintMachine(machine);
  return out;
}

Outcome OutcomeOf(const Completion& c) {
  return Outcome{c.status, c.exit_code, c.cycles, c.instructions, c.fingerprint};
}

MachineConfig ServeMachineConfig() {
  MachineConfig config;
  config.memory_words = ServeConfig{}.machine_memory_words;
  return config;
}

MachineConfig ReferenceConfig() {
  MachineConfig config = ServeMachineConfig();
  config.fast_path = false;
  config.block_engine = false;
  config.chain = false;
  config.shared_decode = false;
  return config;
}

// A guest program: its source, assembled once, and its reference outcome.
struct Guest {
  std::string source;
  AssembleResult assembled;
  Manifest manifest;
  Outcome ref;
};

std::unique_ptr<Machine> Boot(const Guest& guest, const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::string error;
  if (!machine->ok() ||
      !InstantiateGuest(guest.assembled.program, guest.manifest, machine.get(), &error)) {
    Die("guest boot failed: " + error);
  }
  return machine;
}

Guest MakeGuest(std::string source) {
  Guest g;
  g.source = std::move(source);
  g.assembled = Assemble(g.source);
  g.manifest = ParseManifest(g.source);
  if (!g.assembled.ok || !g.manifest.ok()) {
    Die("generated guest does not assemble: " + g.assembled.error.ToString() + g.manifest.error);
  }
  std::unique_ptr<Machine> machine = Boot(g, ReferenceConfig());
  g.ref = OutcomeOf(*machine, machine->Run(kMaxCycles).idle);
  return g;
}

// Digests pinned per workload for the default seed (perfbench/expected.json).
struct Digests {
  FingerprintBuilder inputs;  // guest sources and checkpoint cut points
  FingerprintBuilder fold;    // every reference outcome, in input order
  void AddGuest(const Guest& g) {
    inputs.Mix(g.source);
    fold.Mix(static_cast<uint64_t>(g.ref.status));
    fold.Mix(static_cast<uint64_t>(g.ref.exit_code));
    fold.Mix(g.ref.cycles);
    fold.Mix(g.ref.instructions);
    fold.Mix(g.ref.fingerprint);
  }
};

// --- result record -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // Samples behind the value (ops, setups, ...), or a ratio's base count.
  uint64_t base = 0;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Digests digests;
  std::string notes;

  void Check(const Outcome& got, const Outcome& want, const char* what) {
    ++attempted;
    if (!(got == want)) {
      ++failed;
      if (failed <= 5) {
        std::fprintf(stderr,
                     "ledger: %s mismatch: status %s/%s exit %d/%d cycles %llu/%llu "
                     "fingerprint %016llx/%016llx\n",
                     what, std::string(ServeStatusName(got.status)).c_str(),
                     std::string(ServeStatusName(want.status)).c_str(), got.exit_code,
                     want.exit_code, static_cast<unsigned long long>(got.cycles),
                     static_cast<unsigned long long>(want.cycles),
                     static_cast<unsigned long long>(got.fingerprint),
                     static_cast<unsigned long long>(want.fingerprint));
      }
    }
  }
};

// --- per-layer accumulation --------------------------------------------------

// Counts gathered at retirement of every traced op.
struct LayerCounts {
  Counters cpu;
  uint64_t ops = 0;
  std::vector<double> privatized;
  std::vector<double> private_frames;
  std::vector<double> shared_frames;
  uint64_t acquires = 0;
  uint64_t builds = 0;
  std::vector<double> image_kib;

  void Retire(const Machine& machine, const Counters& before, uint64_t privatized_before) {
    Counters::ForEachField([&](const char*, uint64_t Counters::* member, bool) {
      cpu.*member += machine.cpu().counters().*member - before.*member;
    });
    ++ops;
    privatized.push_back(
        static_cast<double>(machine.memory().frames_privatized() - privatized_before));
    const PhysicalMemory::FrameStats stats = machine.memory().frame_stats();
    private_frames.push_back(static_cast<double>(stats.private_frames));
    shared_frames.push_back(static_cast<double>(stats.shared_frames));
  }
};

// Per-layer metrics from the traced pass's spans and counts. Layers that do
// no work on a workload report 0 with base 0.
void AddLayerMetrics(const std::vector<Span>& spans, const LayerCounts& counts, Result* result) {
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  const auto total = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto per_call_us = [&](const char* metric, const char* span) {
    const SpanTotals t = total(span);
    result->per_layer.push_back(
        {metric, Ratio(t.total_ms * 1000, static_cast<double>(t.count)), "us", t.count});
  };
  const auto ratio = [&](const char* metric, uint64_t num, uint64_t den, const char* unit) {
    result->per_layer.push_back(
        {metric, Ratio(static_cast<double>(num), static_cast<double>(den)), unit, den});
  };
  const Counters& c = counts.cpu;

  per_call_us("kasm.assemble_us", "kasm.assemble");
  result->per_layer.push_back(
      {"kasm.calls", static_cast<double>(total("kasm.assemble").count), "count", 0});
  per_call_us("sys.boot_us", "sys.boot");
  const SpanTotals run = total("sys.run");
  result->per_layer.push_back({"sys.run_us",
                               Ratio(run.total_ms * 1000, static_cast<double>(counts.ops)), "us",
                               counts.ops});
  result->per_layer.push_back({"sys.run_calls", static_cast<double>(run.count), "count", 0});

  ratio("cpu.verdict_hit_ratio", c.verdict_hits, c.verdict_hits + c.verdict_misses, "ratio");
  ratio("cpu.insn_hit_ratio", c.insn_cache_hits, c.insn_cache_hits + c.insn_cache_misses,
        "ratio");
  ratio("cpu.tlb_hit_ratio", c.tlb_hits, c.tlb_hits + c.tlb_misses, "ratio");
  ratio("cpu.block_op_share", c.block_ops, c.instructions, "ratio");
  result->per_layer.push_back({"cpu.block_builds_per_kinsn",
                               Ratio(static_cast<double>(c.block_builds) * 1000,
                                     static_cast<double>(c.instructions)),
                               "1/kinsn", c.instructions});
  ratio("cpu.block_bailouts_per_hit", c.block_bailouts, c.block_hits, "ratio");
  ratio("cpu.chain_follow_share", c.chain_follows, c.block_hits + c.chain_follows, "ratio");
  ratio("cpu.crossing_hit_ratio", c.crossing_hits, c.crossing_hits + c.crossing_misses, "ratio");
  ratio("cpu.shared_decode_hit_ratio", c.shared_decode_hits,
        c.shared_decode_hits + c.shared_decode_misses, "ratio");

  result->per_layer.push_back(
      {"mem.frames_privatized_per_op", Mean(counts.privatized), "frames/op", counts.ops});
  result->per_layer.push_back(
      {"mem.private_frames_p50", Percentile(counts.private_frames, 0.5), "frames", counts.ops});
  result->per_layer.push_back(
      {"mem.shared_frames_p50", Percentile(counts.shared_frames, 0.5), "frames", counts.ops});

  per_call_us("fleet.golden_acquire_us", "fleet.golden_acquire");
  ratio("fleet.golden_build_share", counts.builds, counts.acquires, "ratio");
  per_call_us("fleet.spawn_us", "fleet.spawn");
  per_call_us("fleet.fingerprint_us", "fleet.fingerprint");

  per_call_us("snapshot.verify_us", "snapshot.verify");
  per_call_us("snapshot.restore_us", "snapshot.restore");
  result->per_layer.push_back({"snapshot.image_kib", Mean(counts.image_kib), "KiB",
                               static_cast<uint64_t>(counts.image_kib.size())});

  per_call_us("serve.submit_us", "serve.submit");
}

// --- serve workloads ---------------------------------------------------------

// Share of serve_short submissions that are a first-seen program, so that
// about 90% reuse a golden image.
constexpr double kFreshShare = 0.1;

struct ServeInput {
  bool images = false;
  std::vector<Guest> pool;
  std::vector<std::vector<uint8_t>> image;  // images: the checkpoint
  std::vector<uint64_t> cut_instructions;   // images: retired before the cut
  std::vector<double> cumulative;           // popularity CDF over the pool
};

// Popularity of pool slot k is proportional to 1/sqrt(k+1): skewed (slot 0
// is drawn 7 times as often as slot 47) but flat enough that no single
// program holds the median turnaround. Under 1/(k+1) slots 0 and 1 took a
// third of the traffic, and the median moved by 20% between seeds with the
// speed of those two programs. The guest in each slot is fixed by its size
// rank through a seed-independent permutation, so every seed offers the
// same work distribution with different programs.
std::vector<Guest> MakePool(uint64_t seed, const Scale& scale) {
  std::vector<Guest> clean;
  std::vector<Guest> killed;
  for (size_t i = 0; i < scale.candidates; ++i) {
    Guest g = MakeGuest(GenerateGuest(SubSeed(seed, 1000 + i)).source);
    (g.ref.status == ServeStatus::kCompleted ? clean : killed).push_back(std::move(g));
  }
  const auto by_size = [](const Guest& a, const Guest& b) {
    return a.ref.instructions < b.ref.instructions;
  };
  // Evenly spaced size quantiles of each class, killed ones about 1/6.
  const auto pick = [&](std::vector<Guest>& from, size_t n, std::vector<Guest>* to) {
    std::stable_sort(from.begin(), from.end(), by_size);
    n = std::min(n, from.size());
    for (size_t k = 0; k < n; ++k) {
      to->push_back(from[(2 * k + 1) * from.size() / (2 * n)]);
    }
  };
  std::vector<Guest> ranked;
  pick(killed, scale.killed, &ranked);
  pick(clean, scale.pool - ranked.size(), &ranked);
  std::stable_sort(ranked.begin(), ranked.end(), by_size);
  std::vector<size_t> slot(ranked.size());
  for (size_t i = 0; i < slot.size(); ++i) {
    slot[i] = i;
  }
  Xorshift fixed(0x5EED);
  for (size_t i = slot.size(); i > 1; --i) {
    std::swap(slot[i - 1], slot[fixed.Below(i)]);
  }
  std::vector<Guest> pool;
  for (const size_t s : slot) {
    pool.push_back(ranked[s]);
  }
  return pool;
}

ServeInput MakeServeInput(uint64_t seed, const Scale& scale, bool images, Digests* digests) {
  ServeInput in;
  in.images = images;
  in.pool = MakePool(seed, scale);
  double sum = 0;
  for (size_t k = 0; k < in.pool.size(); ++k) {
    sum += 1.0 / std::sqrt(static_cast<double>(k + 1));
    in.cumulative.push_back(sum);
  }
  for (double& c : in.cumulative) {
    c /= sum;
  }
  for (const Guest& g : in.pool) {
    digests->AddGuest(g);
    if (!images) {
      continue;
    }
    // A mid-run checkpoint, as `ringsim --snapshot-out` writes after a
    // bounded run. Halfway through every guest, so that each seed's images
    // leave the same share of their guests' work to run.
    const uint64_t cut = std::max<uint64_t>(1, g.ref.cycles / 2);
    digests->inputs.Mix(cut);
    std::unique_ptr<Machine> machine = Boot(g, ServeMachineConfig());
    machine->Run(cut);
    in.cut_instructions.push_back(machine->cpu().counters().instructions);
    std::vector<uint8_t> bytes;
    std::string error;
    if (!SaveSnapshot(*machine, &bytes, &error)) {
      Die("snapshot failed: " + error);
    }
    in.image.push_back(std::move(bytes));
  }
  return in;
}

struct Op {
  size_t guest = 0;
  uint64_t fresh = 0;  // nonzero: a first-seen variant of the guest
  double due_ms = 0;
};

Op DrawOp(const ServeInput& in, Xorshift* rng, uint64_t* fresh_counter) {
  const double u = static_cast<double>(rng->Below(1u << 30)) / static_cast<double>(1u << 30);
  Op op;
  op.guest = static_cast<size_t>(
      std::lower_bound(in.cumulative.begin(), in.cumulative.end(), u) - in.cumulative.begin());
  op.guest = std::min(op.guest, in.pool.size() - 1);
  if (!in.images && rng->Below(1000) < static_cast<uint64_t>(kFreshShare * 1000)) {
    op.fresh = ++*fresh_counter;
  }
  return op;
}

// A first-seen program behaves exactly like its base guest (a trailing
// comment changes neither assembly nor manifest) but has a source identity
// the server has never seen, so it pays a golden-image build.
std::string OpSource(const ServeInput& in, const Op& op) {
  std::string source = in.pool[op.guest].source;
  if (op.fresh != 0) {
    source += StrFormat("; first-seen program %llu\n", static_cast<unsigned long long>(op.fresh));
  }
  return source;
}

Submission MakeSubmission(const ServeInput& in, const Op& op) {
  Submission sub;
  if (in.images) {
    sub.image = in.image[op.guest];
  } else {
    sub.source = OpSource(in, op);
  }
  return sub;
}

uint64_t ExecutedInstructions(const ServeInput& in, const Op& op, const Completion& c) {
  return c.instructions - (in.images ? in.cut_instructions[op.guest] : 0);
}

// A measured time and the calibration factor that scales it to the
// reference speed.
struct Timed {
  double value = 0;
  double factor = 1;
  double Get(bool scaled) const { return scaled ? value * factor : value; }
};

double PercentileOf(const std::vector<Timed>& times, double p, bool scaled) {
  std::vector<double> values;
  for (const Timed& t : times) {
    values.push_back(t.Get(scaled));
  }
  return Percentile(values, p);
}

double SumOf(const std::vector<Timed>& times, bool scaled) {
  double sum = 0;
  for (const Timed& t : times) {
    sum += t.Get(scaled);
  }
  return sum;
}

struct OpenRecord {
  Op op;
  Timed turnaround_ms;
  double late_ms = 0;
};

struct PassResult {
  std::vector<Timed> setup_s;
  std::vector<OpenRecord> open;
  uint64_t open_cycles = 0;
  uint64_t open_instructions = 0;
  uint64_t closed_done = 0;
  std::vector<Timed> segment_s;  // closed-loop segments, each `segment` submissions
  size_t segment = 0;
  uint64_t closed_instructions = 0;

  double P(double p, bool scaled) const {
    std::vector<Timed> t;
    for (const OpenRecord& r : open) {
      t.push_back(r.turnaround_ms);
    }
    return PercentileOf(t, p, scaled);
  }
  // Median over segments of completions per second.
  double Capacity(bool scaled) const {
    return Ratio(static_cast<double>(segment), PercentileOf(segment_s, 0.5, scaled));
  }
  double Mips(bool scaled) const {
    return Ratio(static_cast<double>(closed_instructions) / 1e6, SumOf(segment_s, scaled));
  }
};

std::unique_ptr<Server> SetUpServer(const ServeInput& in, const Scale& scale, Result* result) {
  ServeConfig config;
  config.threads = kWorkers;
  auto server = std::make_unique<Server>(config);
  // Warm-up: every popular program once (builds its golden image), or a
  // few images (first restores touch the allocator and host caches).
  const size_t n = in.images ? std::min(scale.image_warmup, in.pool.size()) : in.pool.size();
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(server->Submit(MakeSubmission(in, Op{i, 0, 0})));
  }
  for (size_t i = 0; i < n; ++i) {
    result->Check(OutcomeOf(server->Wait(ids[i])), in.pool[i].ref, "warm-up");
  }
  return server;
}

// One untraced or traced pass: set-up (repeated), an open loop at the fixed
// rate for `open_s`, then a closed loop with a fixed window for `closed_s`.
PassResult RunServePass(const ServeInput& in, const Scale& scale, double open_s, double closed_s,
                        Xorshift* rng, uint64_t* fresh_counter, Tracer* tracer,
                        Calibration* calibration, Result* result) {
  PassResult pass;
  std::unique_ptr<Server> server;
  std::vector<Clock::time_point> setup_at;
  const auto set_up = [&] {
    server.reset();
    calibration->Sample(false);
    setup_at.push_back(Clock::now());
    server = SetUpServer(in, scale, result);
    pass.setup_s.push_back({MsBetween(setup_at.back(), Clock::now()) / 1000, 1});
  };
  for (int i = 0; i < scale.setups; ++i) {
    set_up();
  }

  // Open loop: evenly spaced sends at the workload's fixed offered rate.
  // About ten times a second the generator runs the calibration kernel
  // shortly before a send is due, when the previous submission has long
  // retired and the worker is idle.
  const double rate = in.images ? scale.image_rate : scale.short_rate;
  const size_t calibrate_every = std::max<size_t>(1, static_cast<size_t>(rate / 10));
  const auto calibrate_lead = std::chrono::microseconds(4000);
  std::vector<Op> ops(static_cast<size_t>(open_s * rate));
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i] = DrawOp(in, rng, fresh_counter);
    ops[i].due_ms = static_cast<double>(i) * 1000 / rate;
  }
  std::vector<Submission> subs;
  for (const Op& op : ops) {
    subs.push_back(MakeSubmission(in, op));
  }
  std::vector<uint64_t> ids(ops.size());
  std::vector<Clock::time_point> began(ops.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ops[i].due_ms));
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto due = due_at(i);
    if (i % calibrate_every == 0 && Clock::now() + calibrate_lead < due) {
      std::this_thread::sleep_until(due - calibrate_lead);
      calibration->Sample(false);
    }
    std::this_thread::sleep_until(due);
    began[i] = Clock::now();
    ScopedSpan span(tracer, "serve.submit", i);
    ids[i] = server->Submit(std::move(subs[i]));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const Completion c = server->Wait(ids[i]);
    result->Check(OutcomeOf(c), in.pool[ops[i].guest].ref, "open-loop");
    const double late_ms = MsBetween(due_at(i), began[i]);
    const double turnaround_ms = late_ms + static_cast<double>(c.turnaround_ns) / 1e6;
    pass.open.push_back({ops[i], {turnaround_ms, calibration->Factor(due_at(i))}, late_ms});
    pass.open_cycles += c.cycles;
    pass.open_instructions += c.instructions;
  }

  // Closed loop: a fixed number of outstanding submissions, in segments of
  // a fixed submission count, each on a freshly set-up server so that
  // memory held per segment does not grow with the host's speed.
  const size_t window = 16;
  const size_t segment = in.images ? scale.image_segment : scale.short_segment;
  const auto closed_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(closed_s));
  pass.segment = segment;
  std::vector<Clock::time_point> segment_mid;
  do {
    set_up();
    calibration->Sample(false);  // the server is idle between segments
    calibration->Sample(false);
    std::vector<std::pair<uint64_t, Op>> outstanding;
    const auto start_segment = Clock::now();
    for (size_t head = 0; head < segment; ++head) {
      while (outstanding.size() < std::min(segment, head + window)) {
        const Op op = DrawOp(in, rng, fresh_counter);
        outstanding.emplace_back(server->Submit(MakeSubmission(in, op)), op);
      }
      const Op op = outstanding[head].second;
      const Completion c = server->Wait(outstanding[head].first);
      result->Check(OutcomeOf(c), in.pool[op.guest].ref, "closed-loop");
      pass.closed_instructions += ExecutedInstructions(in, op, c);
    }
    const auto end_segment = Clock::now();
    pass.segment_s.push_back({MsBetween(start_segment, end_segment) / 1000, 1});
    segment_mid.push_back(start_segment + (end_segment - start_segment) / 2);
    pass.closed_done += segment;
  } while (Clock::now() < closed_end);
  server.reset();
  calibration->Sample(false);
  for (size_t i = 0; i < pass.setup_s.size(); ++i) {
    pass.setup_s[i].factor = calibration->Factor(setup_at[i]);
  }
  for (size_t i = 0; i < pass.segment_s.size(); ++i) {
    pass.segment_s[i].factor = calibration->Factor(segment_mid[i]);
  }
  return pass;
}

// Replays every open-loop submission of the traced pass on this thread,
// through the layers in the server's order: materialize (golden acquire +
// spawn, or verify + construct + restore), run in slice_cycles slices,
// fingerprint at retirement.
void ReplayServe(const ServeInput& in, const PassResult& pass, Tracer* tracer,
                 LayerCounts* counts, std::vector<double>* own_ms, Result* result) {
  GoldenImageRegistry::Pin pin;
  const ServeConfig serve;
  const auto acquire = [&](const std::string& source, uint64_t op, Tracer* t) {
    FingerprintBuilder identity;
    identity.Mix(source);
    identity.Mix(std::string_view("perfbench-replay"));
    bool built = false;
    ScopedSpan span(t, "fleet.golden_acquire", op);
    auto golden = GoldenImageRegistry::Instance().Acquire(
        identity.digest(),
        [&]() -> std::unique_ptr<Machine> {
          Guest g;
          {
            ScopedSpan kasm(t, "kasm.assemble", op);
            g.assembled = Assemble(source);
            g.manifest = ParseManifest(source);
          }
          ScopedSpan boot(t, "sys.boot", op);
          return Boot(g, ServeMachineConfig());
        },
        &built);
    if (t != nullptr) {
      ++counts->acquires;
      counts->builds += built ? 1 : 0;
    }
    return golden;
  };
  if (!in.images) {
    for (const Guest& g : in.pool) {
      acquire(g.source, 0, nullptr);  // the server's warm-up builds
    }
  }
  for (size_t i = 0; i < pass.open.size(); ++i) {
    const Op& op = pass.open[i].op;
    const auto t0 = Clock::now();
    ScopedSpan root(tracer, "op", i);
    std::unique_ptr<Machine> machine;
    if (in.images) {
      const std::vector<uint8_t>& image = in.image[op.guest];
      counts->image_kib.push_back(static_cast<double>(image.size()) / 1024);
      SnapshotMeta meta;
      std::string error;
      {
        ScopedSpan span(tracer, "snapshot.verify", i);
        if (!VerifySnapshot(image, &error) || !PeekSnapshotMeta(image, &meta, &error)) {
          Die("replay verify failed: " + error);
        }
      }
      ScopedSpan span(tracer, "snapshot.restore", i);
      MachineConfig config;
      config.memory_words = meta.memory_words;
      config.cycle_model = meta.cycle_model;
      config.quantum = meta.quantum;
      config.mode = meta.mode;
      machine = std::make_unique<Machine>(config);
      if (!machine->ok() || !RestoreSnapshot(image, machine.get(), &error)) {
        Die("replay restore failed: " + error);
      }
    } else {
      const auto golden = acquire(OpSource(in, op), i, tracer);
      ScopedSpan span(tracer, "fleet.spawn", i);
      machine = golden->Spawn();
    }
    const Counters before = machine->cpu().counters();
    const uint64_t privatized_before = machine->memory().frames_privatized();
    bool idle = false;
    uint64_t consumed = 0;
    while (!idle && consumed < kMaxCycles) {
      ScopedSpan span(tracer, "sys.run", i);
      const RunResult run =
          machine->Run(std::min(serve.slice_cycles, kMaxCycles - consumed));
      consumed += run.cycles;
      idle = run.idle;
    }
    Outcome got;
    {
      ScopedSpan span(tracer, "fleet.fingerprint", i);
      got = OutcomeOf(*machine, idle);
    }
    counts->Retire(*machine, before, privatized_before);
    result->Check(got, in.pool[op.guest].ref, "replay");
    own_ms->push_back(MsBetween(t0, Clock::now()));
  }
}

// An end-to-end time scaled to the reference speed, and beside it, under
// `raw.<name>`, the same figure as measured.
void AddTimed(const char* name, double scaled, double raw, const char* unit, uint64_t base,
              Result* result) {
  result->end_to_end.push_back({name, scaled, unit, base});
  result->end_to_end.push_back({std::string("raw.") + name, raw, unit, base});
}

void AddServeEndToEnd(const PassResult& pass, const Calibration& calibration, Result* result) {
  const uint64_t n = pass.open.size();
  AddTimed("turnaround_p50_ms", pass.P(0.50, true), pass.P(0.50, false), "ms", n, result);
  AddTimed("turnaround_p95_ms", pass.P(0.95, true), pass.P(0.95, false), "ms", n, result);
  AddTimed("capacity_per_s", pass.Capacity(true), pass.Capacity(false), "1/s", pass.closed_done,
           result);
  AddTimed("sim_mips", pass.Mips(true), pass.Mips(false), "Minsn/s", pass.closed_done, result);
  result->end_to_end.push_back(
      {"sim_cpi",
       Ratio(static_cast<double>(pass.open_cycles), static_cast<double>(pass.open_instructions)),
       "cycles/insn", n});
  AddTimed("setup_s", PercentileOf(pass.setup_s, 0.5, true), PercentileOf(pass.setup_s, 0.5, false),
           "s", pass.setup_s.size(), result);
  result->end_to_end.push_back(
      {"host.calibration_ms", calibration.MedianMs(), "ms", calibration.size()});
  if (n >= 1000) {
    result->notes += StrFormat("turnaround_p99_ms %.4f (n=%llu)\n", pass.P(0.99, true),
                               static_cast<unsigned long long>(n));
  } else {
    result->notes += StrFormat("turnaround_p99_ms n/a: %llu open-loop samples, p99 needs 1000\n",
                               static_cast<unsigned long long>(n));
  }
  std::vector<double> late;
  for (const OpenRecord& r : pass.open) {
    late.push_back(r.late_ms);
  }
  result->notes += StrFormat("generator late p99 %.4f ms (n=%llu)\n", Percentile(late, 0.99),
                             static_cast<unsigned long long>(n));
}

void RunServe(const ServeInput& in, const Scale& scale, uint64_t seed, double seconds,
              bool trace, Result* result, Tracer* tracer) {
  Xorshift rng(SubSeed(seed, 11));
  uint64_t fresh_counter = 0;
  // The open loop gets enough time for >= 10 samples beyond p95 at the
  // image rate.
  const double open = seconds * (in.images ? 0.6 : 0.5);
  const double closed = seconds - open;
  Calibration calibration;
  if (!trace) {
    const PassResult pass = RunServePass(in, scale, open, closed, &rng, &fresh_counter, nullptr,
                                         &calibration, result);
    AddServeEndToEnd(pass, calibration, result);
    return;
  }
  const PassResult plain = RunServePass(in, scale, open / 2, closed / 2, &rng, &fresh_counter,
                                        nullptr, &calibration, result);
  const PassResult traced = RunServePass(in, scale, open / 2, closed / 2, &rng, &fresh_counter,
                                         tracer, &calibration, result);
  LayerCounts counts;
  std::vector<double> own_ms;
  ReplayServe(in, traced, tracer, &counts, &own_ms, result);
  AddLayerMetrics(tracer->spans(), counts, result);
  std::vector<double> wait_ms;
  std::vector<double> late_ms;
  for (size_t i = 0; i < traced.open.size(); ++i) {
    wait_ms.push_back(traced.open[i].turnaround_ms.value - own_ms[i]);
    late_ms.push_back(traced.open[i].late_ms);
  }
  result->per_layer.push_back(
      {"serve.wait_ms", Mean(wait_ms), "ms", static_cast<uint64_t>(wait_ms.size())});
  result->per_layer.push_back({"serve.late_ms_p99", Percentile(late_ms, 0.99), "ms",
                               static_cast<uint64_t>(late_ms.size())});
  result->per_layer.push_back({"trace.p50_ratio",
                               Ratio(traced.P(0.5, true), plain.P(0.5, true)), "ratio",
                               static_cast<uint64_t>(traced.open.size())});
  result->per_layer.push_back({"trace.mips_ratio", Ratio(traced.Mips(true), plain.Mips(true)),
                               "ratio", traced.closed_done});
}

// --- long_run ----------------------------------------------------------------

// The Figure 8 gate-crossing call loop: a ring-`caller` loop calls a
// ring-1 gate that reads `nargs` validated arguments.
std::string CallLoopGuest(unsigned caller, int nargs, uint64_t insns) {
  std::string callee;
  std::string arglist = StrFormat("args:   .word %d\n", nargs);
  for (int i = 0; i < nargs; ++i) {
    callee += StrFormat("        lda   pr1|%d,*\n", i + 1);
    arglist += StrFormat("        .its  %u, argdata, %d\n", caller, i);
  }
  return StrFormat(R"(;; acl main * procedure %u %u
;; acl counter * data %u %u
;; acl argdata * data %u %u
;; acl target * procedure 1 1 7
;; start main start %u
        .segment main
start:  epp   pr1, args
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word %llu
cnt:    .its  %u, counter, 0
gptr:   .its  %u, target, 0
%s
        .segment counter
        .word 0

        .segment argdata
        .block %d

        .segment target
        .gates 1
entry:
%s        ret   pr7|0
)",
                   caller, caller, caller, caller, caller, caller, caller,
                   static_cast<unsigned long long>(insns / (7 + nargs)), caller, caller,
                   arglist.c_str(), std::max(nargs, 1), callee.c_str());
}

// A demand-paged array walk: `passes` strided read-modify-write sweeps over
// up to `pages` pages, every reference through the page table (and the
// TLB). Each sweep stops short of the array's end by as much as it takes
// for the sweeps to total `insns` instructions.
std::string PagedWalkGuest(int pages, int stride, uint64_t insns) {
  const uint64_t words = static_cast<uint64_t>(pages) * 1024;
  const uint64_t refs = std::max<uint64_t>(1, insns / 9);
  const uint64_t full = words / static_cast<uint64_t>(stride);
  const uint64_t passes = (refs + full - 1) / full;
  const uint64_t limit = refs / passes * static_cast<uint64_t>(stride);
  return StrFormat(R"(;; acl walker * procedure 4 4
;; acl arr * data 4 4
;; acl scratch * data 4 4
;; segment arr %llu paged demand
;; start walker start 4
        .segment walker
start:  epp   pr2, ap,*
        stz   pass,*
outer:  stz   idx,*
inner:  ldx   x1, idx,*
        lda   pr2|0,x1
        adai  1
        sta   pr2|0,x1
        lda   idx,*
        adai  %d
        sta   idx,*
        sba   limit
        tmi   inner
        aos   pass,*
        lda   pass,*
        sba   npass
        tmi   outer
        mme   0
limit:  .word %llu
npass:  .word %llu
ap:     .its  4, arr, 0
idx:    .its  4, scratch, 0
pass:   .its  4, scratch, 1

        .segment scratch
        .block 2
)",
                   static_cast<unsigned long long>(words), stride,
                   static_cast<unsigned long long>(limit), static_cast<unsigned long long>(passes));
}

// The protected-directory search of the paper's Conclusions, library
// structure: the search loop runs in ring `caller` and every probe crosses
// into a ring-1 gate that reads one word of a directory only rings 0-1 may
// read. The guest repeats the worst-case search and exits with the value
// found.
std::string DirectorySearchGuest(unsigned caller, int entries, uint64_t insns) {
  std::string dir;
  for (int i = 1; i <= entries; ++i) {
    dir += StrFormat("        .word %d\n        .word %d\n", i, 1000 + i);
  }
  const uint64_t searches = std::max<uint64_t>(1, insns / (14 * static_cast<uint64_t>(entries)));
  return StrFormat(R"(;; acl rdsvc * procedure 1 1 5
;; acl svcdata * data 1 1
;; acl directory * rodata 1
;; acl main * procedure %u %u
;; acl udata * data %u %u
;; start main start %u
        .segment rdsvc
        .gates 1
gate:   stq   tq,*
        ldx   x1, tq,*
        epp   pr3, sdirp,*
        lda   pr3|0,x1
        ret   pr7|0
tq:     .its  1, svcdata, 0
sdirp:  .its  1, directory, 0

        .segment svcdata
        .block 1

        .segment directory
%s
        .segment main
start:  stz   nsr,*
outer:  stz   idx,*
loop:   ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        mme   0
found:  aos   nsr,*
        lda   nsr,*
        sba   nsearch
        tmi   outer
        lda   idx,*
        adai  1
        sta   idx,*
        ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        mme   0
key:    .word %d
dlen:   .word %d
nsearch: .word %llu
idx:    .its  %u, udata, 0
nsr:    .its  %u, udata, 1
g:      .its  %u, rdsvc, 0

        .segment udata
        .block 2
)",
                   caller, caller, caller, caller, caller, dir.c_str(), entries, 2 * entries,
                   static_cast<unsigned long long>(searches), caller, caller, caller);
}

// Four guests of each shape, stratified so that every seed runs the same
// mix of costs with different programs: the four call loops take 1, 2, 3
// and 4 arguments in a seeded order, the four walks and the four searches
// draw their sizes from four fixed bands each, and the seed picks caller
// rings, strides and the sizes within each band. Every guest is sized to
// about the same instruction count. (Drawn independently, one seed's mix
// ran 14% faster than another's on the same host.)
std::vector<std::string> LongRunSources(uint64_t seed, const Scale& scale) {
  Xorshift rng(SubSeed(seed, 21));
  std::vector<int> nargs = {1, 2, 3, 4};
  for (size_t i = nargs.size(); i > 1; --i) {
    std::swap(nargs[i - 1], nargs[rng.Below(i)]);
  }
  std::vector<std::string> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(CallLoopGuest(static_cast<unsigned>(rng.Between(2, 4)),
                                    nargs[static_cast<size_t>(i)], scale.long_insns));
    sources.push_back(PagedWalkGuest(static_cast<int>(16 + 8 * i + rng.Below(8)),
                                     static_cast<int>(1u << rng.Below(3)), scale.long_insns));
    sources.push_back(DirectorySearchGuest(static_cast<unsigned>(rng.Between(2, 4)),
                                           static_cast<int>(48 + 28 * i + rng.Below(28)),
                                           scale.long_insns));
  }
  return sources;
}

// long_run times are the benchmark thread's CPU time (ThreadCpuMs): the
// workload is one thread that never waits, so this is its wall time minus
// the time a shared host kept it off a core. The calibration kernel runs
// before every op, timed the same way.
struct LongPass {
  std::vector<Timed> turnaround_ms;
  std::vector<Timed> run_ms;
  uint64_t instructions = 0;

  double P(double p, bool scaled) const { return PercentileOf(turnaround_ms, p, scaled); }
  // Guests completed per second of op time.
  double Capacity(bool scaled) const {
    return Ratio(static_cast<double>(turnaround_ms.size()), SumOf(turnaround_ms, scaled) / 1000);
  }
  double Mips(bool scaled) const {
    return Ratio(static_cast<double>(instructions) / 1e6, SumOf(run_ms, scaled) / 1000);
  }
};

LongPass RunLongPass(const std::vector<Guest>& guests, double seconds, Tracer* tracer,
                     LayerCounts* counts, Calibration* calibration, Result* result) {
  LongPass pass;
  std::vector<Clock::time_point> op_at;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (uint64_t op = 0; op == 0 || Clock::now() < end; ++op) {
    const Guest& g = guests[op % guests.size()];
    calibration->Sample(true);
    op_at.push_back(Clock::now());
    const double t0 = ThreadCpuMs();
    ScopedSpan root(tracer, "op", op);
    std::unique_ptr<Machine> machine;
    {
      ScopedSpan span(tracer, "sys.boot", op);
      machine = Boot(g, ServeMachineConfig());
    }
    const Counters before = machine->cpu().counters();
    const uint64_t privatized_before = machine->memory().frames_privatized();
    RunResult run;
    const double r0 = ThreadCpuMs();
    {
      ScopedSpan span(tracer, "sys.run", op);
      run = machine->Run(kMaxCycles);
    }
    pass.run_ms.push_back({ThreadCpuMs() - r0, 1});
    Outcome got;
    {
      ScopedSpan span(tracer, "fleet.fingerprint", op);
      got = OutcomeOf(*machine, run.idle);
    }
    if (counts != nullptr) {
      counts->Retire(*machine, before, privatized_before);
    }
    machine.reset();
    pass.turnaround_ms.push_back({ThreadCpuMs() - t0, 1});
    pass.instructions += got.instructions;
    result->Check(got, g.ref, "long_run");
  }
  for (size_t i = 0; i < op_at.size(); ++i) {
    pass.turnaround_ms[i].factor = pass.run_ms[i].factor = calibration->Factor(op_at[i]);
  }
  return pass;
}

// Set-up: assemble every guest and boot it once (`Machine` construction +
// `InstantiateGuest`). No guest runs here, so set-up time does not measure
// engine speed a second time.
std::vector<Guest> SetUpLongRun(const std::vector<Guest>& reference, Tracer* tracer) {
  std::vector<Guest> guests;
  for (const Guest& r : reference) {
    Guest g;
    g.source = r.source;
    g.ref = r.ref;
    {
      ScopedSpan span(tracer, "kasm.assemble", 0);
      g.assembled = Assemble(g.source);
      g.manifest = ParseManifest(g.source);
    }
    Boot(g, ServeMachineConfig());
    guests.push_back(std::move(g));
  }
  return guests;
}

void RunLong(const std::vector<Guest>& reference, const Scale& scale, double seconds,
             bool trace, Result* result, Tracer* tracer) {
  Calibration calibration;
  std::vector<Timed> setup_s;
  std::vector<Clock::time_point> setup_at;
  std::vector<Guest> guests;
  for (int i = 0; i < scale.long_setups; ++i) {
    calibration.Sample(true);
    setup_at.push_back(Clock::now());
    const double t0 = ThreadCpuMs();
    guests = SetUpLongRun(reference, trace && i + 1 == scale.long_setups ? tracer : nullptr);
    setup_s.push_back({(ThreadCpuMs() - t0) / 1000, 1});
  }
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setup_s[i].factor = calibration.Factor(setup_at[i]);
  }
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  for (const Guest& g : reference) {
    cycles += g.ref.cycles;
    instructions += g.ref.instructions;
  }
  if (!trace) {
    const LongPass pass = RunLongPass(guests, seconds, nullptr, nullptr, &calibration, result);
    const uint64_t n = pass.turnaround_ms.size();
    AddTimed("turnaround_p50_ms", pass.P(0.5, true), pass.P(0.5, false), "ms", n, result);
    AddTimed("turnaround_p95_ms", pass.P(0.95, true), pass.P(0.95, false), "ms", n, result);
    AddTimed("capacity_per_s", pass.Capacity(true), pass.Capacity(false), "1/s", n, result);
    AddTimed("sim_mips", pass.Mips(true), pass.Mips(false), "Minsn/s", n, result);
    result->end_to_end.push_back(
        {"sim_cpi", Ratio(static_cast<double>(cycles), static_cast<double>(instructions)),
         "cycles/insn", reference.size()});
    AddTimed("setup_s", PercentileOf(setup_s, 0.5, true), PercentileOf(setup_s, 0.5, false), "s",
             setup_s.size(), result);
    result->end_to_end.push_back(
        {"host.calibration_ms", calibration.MedianMs(), "ms", calibration.size()});
    return;
  }
  const LongPass plain = RunLongPass(guests, seconds / 2, nullptr, nullptr, &calibration, result);
  LayerCounts counts;
  const LongPass traced = RunLongPass(guests, seconds / 2, tracer, &counts, &calibration, result);
  AddLayerMetrics(tracer->spans(), counts, result);
  result->per_layer.push_back({"serve.wait_ms", 0, "ms", 0});
  result->per_layer.push_back({"serve.late_ms_p99", 0, "ms", 0});
  result->per_layer.push_back({"trace.p50_ratio", Ratio(traced.P(0.5, true), plain.P(0.5, true)),
                               "ratio", static_cast<uint64_t>(traced.turnaround_ms.size())});
  result->per_layer.push_back({"trace.mips_ratio", Ratio(traced.Mips(true), plain.Mips(true)),
                               "ratio", static_cast<uint64_t>(traced.turnaround_ms.size())});
}

// --- output ------------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += StrFormat("%s%s:{\"value\":%.17g,\"unit\":%s,\"base\":%llu}", i == 0 ? "" : ",",
                     JsonString(m.name).c_str(), m.value, JsonString(m.unit).c_str(),
                     static_cast<unsigned long long>(m.base));
  }
  return out + "}";
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload serve_short|serve_images|long_run [--seed N]\n"
               "              [--seconds S] [--trace 0|1] [--scale full|tiny]\n"
               "              [--trace-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      opt.tiny = value == "tiny";
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0 ||
      (opt.workload != "serve_short" && opt.workload != "serve_images" &&
       opt.workload != "long_run")) {
    return Usage();
  }
  const Scale scale = opt.tiny ? TinyScale() : Scale{};
  const double parallelism = EffectiveParallelism(opt.tiny ? 2'000'000 : 40'000'000);

  Result result;
  Tracer tracer;
  const auto inputs_start = Clock::now();
  if (opt.workload == "long_run") {
    std::vector<Guest> reference;
    for (std::string& source : LongRunSources(opt.seed, scale)) {
      reference.push_back(MakeGuest(std::move(source)));
      result.digests.AddGuest(reference.back());
    }
    std::printf("inputs: %zu long guests, references in %.3f s\n", reference.size(),
                MsBetween(inputs_start, Clock::now()) / 1000);
    RunLong(reference, scale, opt.seconds, opt.trace, &result, &tracer);
  } else {
    const ServeInput in =
        MakeServeInput(opt.seed, scale, opt.workload == "serve_images", &result.digests);
    std::printf("inputs: %zu pool guests, references in %.3f s\n", in.pool.size(),
                MsBetween(inputs_start, Clock::now()) / 1000);
    RunServe(in, scale, opt.seed, opt.seconds, opt.trace, &result, &tracer);
  }
  if (!opt.trace) {
    result.end_to_end.push_back({"peak_rss_mib", PeakRssMib(), "MiB", 1});
  } else {
    result.per_layer.push_back({"host.effective_parallelism", parallelism, "cores", 0});
    const std::map<std::string, SpanTotals> totals = TotalsByName(tracer.spans());
    const std::string table = SelfTimeTable(totals);
    std::printf("per-layer self time (%zu spans):\n%s", tracer.spans().size(), table.c_str());
    if (!opt.trace_dir.empty()) {
      const std::string stem =
          StrFormat("%s/%s-seed%llu", opt.trace_dir.c_str(), opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed));
      std::FILE* f = std::fopen((stem + "-self.txt").c_str(), "w");
      const bool ok = f != nullptr && std::fputs(table.c_str(), f) >= 0 && std::fclose(f) == 0 &&
                      WriteChromeTrace(stem + "-trace.json", tracer.spans());
      if (!ok) {
        Die("cannot write trace files under " + opt.trace_dir);
      }
      std::printf("trace: %s-trace.json\n", stem.c_str());
    }
  }
  std::printf("%s", result.notes.c_str());

  std::printf(
      "RESULT {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"scale\":%s,"
      "\"context\":{\"nproc\":%u,\"effective_parallelism\":%.4f,\"compiler\":%s,"
      "\"build_type\":%s,\"workers\":%d},"
      "\"attempted\":%llu,\"failed\":%llu,\"fingerprint_fold\":\"%016llx\","
      "\"input_digest\":\"%016llx\",\"end_to_end\":%s,\"per_layer\":%s}\n",
      JsonString(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, opt.tiny ? "\"tiny\"" : "\"full\"", std::thread::hardware_concurrency(),
      parallelism, JsonString(StrFormat("gcc %s", __VERSION__)).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), kWorkers,
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      static_cast<unsigned long long>(result.digests.fold.digest()),
      static_cast<unsigned long long>(result.digests.inputs.digest()),
      JsonMetrics(result.end_to_end).c_str(), JsonMetrics(result.per_layer).c_str());
  return 0;
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) { return rings::Main(argc, argv); }
