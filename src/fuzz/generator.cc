#include "src/fuzz/generator.h"

#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/base/xorshift.h"
#include "src/isa/instruction.h"

namespace rings {

namespace {

// Program-shape features drawn once per seed, up front, so the manifest
// and segment skeleton are fixed before step emission begins.
struct Shape {
  unsigned start_ring = 4;
  bool main_writable = false;  // enables store-into-code steps
  bool paged = false;          // a demand/populate paged data segment pd0
  bool paged_populate = false;
  unsigned paged_pages = 0;
  bool gate2 = false;           // a ring-2 subsystem with ring-2 data
  bool second_process = false;  // a second ;; start multiplexed by quanta
  int gate1_gates = 1;          // gate words in the ring-1 gate segment
};

class Gen {
 public:
  Gen(uint64_t seed, const GeneratorConfig& config) : seed_(seed), config_(config), rng_(seed) {}

  std::string Build();

 private:
  // --- small emission helpers --------------------------------------------
  std::string Label(const char* stem) { return StrFormat("%s%d", stem, label_seq_++); }
  void Code(const std::string& line) { code_ += "        " + line + "\n"; }
  void Code(const std::string& label, const std::string& line) {
    std::string head = label + ":";
    while (head.size() < 8) {
      head += ' ';
    }
    code_ += head + line + "\n";
  }
  void Data(const std::string& label, const std::string& line) {
    std::string head = label + ":";
    while (head.size() < 8) {
      head += ' ';
    }
    data_ += head + line + "\n";
  }
  void Data(const std::string& line) { data_ += "        " + line + "\n"; }

  // A fresh zeroed word in the shared `work` data segment, returned as the
  // label of an indirect word in main that addresses it.
  std::string WorkPtr() {
    const std::string label = Label("w");
    Data(label, StrFormat(".its  %u, work, %d", shape_.start_ring, work_words_++));
    return label;
  }

  // Opens a counted loop: body runs exactly `count` times, then control
  // falls through. The loop counter lives in `work` (memory, not A), so
  // bodies may clobber A and Q freely. Returns the loop-head label to pass
  // to CloseLoop.
  struct Loop {
    std::string head;
    std::string counter;
    std::string limit;
  };
  Loop OpenLoop(uint64_t count) {
    Loop loop;
    loop.head = Label("lp");
    loop.counter = WorkPtr();
    loop.limit = Label("lm");
    Data(loop.limit, StrFormat(".word %llu", static_cast<unsigned long long>(count)));
    Code(loop.head, "nop");
    return loop;
  }
  void CloseLoop(const Loop& loop) {
    Code(StrFormat("aos   %s,*", loop.counter.c_str()));
    Code(StrFormat("lda   %s,*", loop.counter.c_str()));
    Code(StrFormat("sba   %s", loop.limit.c_str()));
    Code(StrFormat("tmi   %s", loop.head.c_str()));
  }

  // A loop trip count: usually small; occasionally quantum-straddling big
  // (bounded by the remaining instruction budget).
  uint64_t LoopCount() {
    if (big_loops_ < 2 && instr_budget_ > 40'000 && rng_.Chance(1, 5)) {
      ++big_loops_;
      return rng_.Between(500, 1800);
    }
    return rng_.Between(3, 12);
  }
  void Charge(uint64_t count, uint64_t body_cost) {
    const uint64_t cost = count * (body_cost + 5) + 4;
    instr_budget_ = cost >= instr_budget_ ? 0 : instr_budget_ - cost;
  }

  // --- step emitters ------------------------------------------------------
  void StepGateCallLoop();
  void StepComputeLoop();
  void StepIndirectChain();
  void StepSmcLoop();
  void StepPagedTouch();
  void StepTtyWrite();
  void StepGate2Loop();
  void EmitTerminal();
  void EmitSecondProcess();
  void EmitGateSegments();

  uint64_t seed_;
  GeneratorConfig config_;
  Xorshift rng_;
  Shape shape_;

  std::string code_;  // body of the segment being generated
  std::string data_;  // trailing data of the segment being generated
  std::string ptrs_;  // indirect words assembled into the rodata `ptrs` segment
  int label_seq_ = 0;
  int work_words_ = 0;  // words of `work` handed out so far
  int ptr_words_ = 0;   // words of `ptrs` emitted so far
  int big_loops_ = 0;
  uint64_t instr_budget_ = 120'000;  // estimated instructions remaining
};

void Gen::StepGateCallLoop() {
  const std::string gp = Label("gp");
  const int gate = static_cast<int>(rng_.Below(static_cast<uint64_t>(shape_.gate1_gates)));
  Data(gp, StrFormat(".its  %u, gate1, %d", shape_.start_ring, gate));
  const uint64_t count = LoopCount();
  const Loop loop = OpenLoop(count);
  Code(StrFormat("epp   pr2, %s,*", gp.c_str()));
  Code("call  pr2|0");
  CloseLoop(loop);
  Charge(count, 12);
}

void Gen::StepComputeLoop() {
  // A handful of arithmetic/logic ops over main-resident constants and
  // work-resident scratch.
  std::vector<std::string> body;
  const int ops = static_cast<int>(rng_.Between(2, 5));
  const std::string scratch = WorkPtr();
  for (int i = 0; i < ops; ++i) {
    const std::string d = Label("d");
    Data(d, StrFormat(".word %llu", static_cast<unsigned long long>(rng_.Below(4000))));
    switch (rng_.Below(9)) {
      case 0:
        body.push_back(StrFormat("lda   %s", d.c_str()));
        break;
      case 1:
        body.push_back(StrFormat("ada   %s", d.c_str()));
        break;
      case 2:
        body.push_back(StrFormat("sba   %s", d.c_str()));
        break;
      case 3:
        body.push_back(StrFormat("ana   %s", d.c_str()));
        break;
      case 4:
        body.push_back(StrFormat("ora   %s", d.c_str()));
        break;
      case 5:
        body.push_back(StrFormat("era   %s", d.c_str()));
        break;
      case 6:
        body.push_back(StrFormat("adai  %llu", static_cast<unsigned long long>(rng_.Below(200))));
        break;
      case 7:
        body.push_back("xaq");
        break;
      default:
        body.push_back(StrFormat("sta   %s,*", scratch.c_str()));
        break;
    }
  }
  const uint64_t count = LoopCount();
  const Loop loop = OpenLoop(count);
  for (const std::string& line : body) {
    Code(line);
  }
  CloseLoop(loop);
  Charge(count, static_cast<uint64_t>(ops) + 1);
}

void Gen::StepIndirectChain() {
  // A read and a read-modify-write chased through 1-3 planted indirect
  // words; chain middles live in the read-only `ptrs` segment.
  const std::string target = WorkPtr();  // also gives the final work word
  const int final_word = work_words_ - 1;
  const int depth = static_cast<int>(rng_.Between(1, 3));
  int next = final_word;  // word in `work` the deepest link lands on
  std::string link;
  for (int i = 0; i < depth; ++i) {
    link = Label("p");
    std::string head = link + ":";
    while (head.size() < 8) {
      head += ' ';
    }
    if (i == 0) {
      ptrs_ += head + StrFormat(".its  %u, work, %d\n", shape_.start_ring, next);
    } else {
      ptrs_ += head + StrFormat(".its  %u, ptrs, %d, *\n", shape_.start_ring, ptr_words_ - 1);
    }
    ++ptr_words_;
  }
  const std::string chain = Label("ch");
  Data(chain, StrFormat(".its  %u, ptrs, %d, *", shape_.start_ring, ptr_words_ - 1));
  Code(StrFormat("aos   %s,*", chain.c_str()));
  Code(StrFormat("lda   %s,*", chain.c_str()));
  Code(StrFormat("adai  %llu", static_cast<unsigned long long>(rng_.Below(50))));
  Code(StrFormat("sta   %s,*", target.c_str()));
  instr_budget_ -= instr_budget_ < 8 ? instr_budget_ : 8;
}

void Gen::StepSmcLoop() {
  // Store-into-code: a loop whose body contains a patch site that the loop
  // itself overwrites on its first pass, so later passes (and any cached
  // decodes or superblocks built from them) must observe the new word.
  const std::string patch = Label("pt");
  const std::string pins = Label("pi");
  const Instruction patched =
      MakeIns(rng_.Chance(1, 2) ? Opcode::kAdai : Opcode::kLdai,
              static_cast<int32_t>(rng_.Below(300)));
  Data(pins, StrFormat(".word 0x%llx",
                       static_cast<unsigned long long>(EncodeInstruction(patched))));
  const uint64_t count = rng_.Between(3, 8);
  const Loop loop = OpenLoop(count);
  Code(patch, "nop");
  Code(StrFormat("lda   %s", pins.c_str()));
  Code(StrFormat("sta   %s", patch.c_str()));
  CloseLoop(loop);
  Charge(count, 3);
}

void Gen::StepPagedTouch() {
  // Walk a few random words of the paged segment, faulting pages in (and
  // under the snapshot leg, carrying page-table state across the cut).
  const int touches = static_cast<int>(rng_.Between(2, 4));
  std::vector<std::string> pointers;
  for (int i = 0; i < touches; ++i) {
    const std::string pp = Label("pg");
    const uint64_t off = rng_.Below(static_cast<uint64_t>(shape_.paged_pages) * 1024);
    Data(pp, StrFormat(".its  %u, pd0, %llu", shape_.start_ring,
                       static_cast<unsigned long long>(off)));
    pointers.push_back(pp);
  }
  const uint64_t count = rng_.Between(2, 6);
  const Loop loop = OpenLoop(count);
  for (const std::string& pp : pointers) {
    Code(StrFormat("lda   %s,*", pp.c_str()));
    Code("adai  1");
    Code(StrFormat("sta   %s,*", pp.c_str()));
  }
  CloseLoop(loop);
  Charge(count, static_cast<uint64_t>(touches) * 3);
}

void Gen::StepTtyWrite() {
  // hello.asm idiom: arglist in pr1, call sup_gates gate 1 (tty write).
  const std::string al = Label("al");
  const std::string buf = Label("bf");
  const std::string sgp = Label("sg");
  const int len = static_cast<int>(rng_.Between(3, 8));
  std::string text;
  for (int i = 0; i < len; ++i) {
    text += static_cast<char>('A' + rng_.Below(26));
  }
  Code(StrFormat("epp   pr1, %s", al.c_str()));
  Code(StrFormat("epp   pr2, %s,*", sgp.c_str()));
  Code("call  pr2|0");
  Data(al, ".word 1");
  Data(StrFormat(".its  %u, main, %s", shape_.start_ring, buf.c_str()));
  Data(StrFormat(".word %d", len));
  Data(buf, StrFormat(".string %s", text.c_str()));
  Data(sgp, StrFormat(".its  %u, sup_gates, 1", shape_.start_ring));
  instr_budget_ -= instr_budget_ < 20 ? instr_budget_ : 20;
}

void Gen::StepGate2Loop() {
  const std::string gp = Label("gp");
  Data(gp, StrFormat(".its  %u, gate2, 0", shape_.start_ring));
  const uint64_t count = LoopCount();
  const Loop loop = OpenLoop(count);
  Code(StrFormat("epp   pr3, %s,*", gp.c_str()));
  Code("call  pr3|0");
  CloseLoop(loop);
  Charge(count, 10);
}

void Gen::EmitTerminal() {
  if (rng_.Chance(1, 6)) {
    // Deliberate access violation: a store through a pointer whose target
    // refuses writes from the start ring — the process is killed here, a
    // trap-sequence event every engine must agree on.
    const std::string vp = Label("vp");
    if (shape_.gate2) {
      Data(vp, StrFormat(".its  %u, tally2, 0", shape_.start_ring));
    } else {
      Data(vp, StrFormat(".its  %u, ptrs, 0", shape_.start_ring));
    }
    Code(StrFormat("sta   %s,*", vp.c_str()));
  }
  const std::string ex = Label("ex");
  Data(ex, StrFormat(".word %llu", static_cast<unsigned long long>(rng_.Below(1000))));
  Code(StrFormat("lda   %s", ex.c_str()));
  Code("mme   0");
}

void Gen::EmitSecondProcess() {
  // A small companion program: compute + gate traffic, so quantum handoffs
  // interleave two processes' ring crossings.
  code_ += "\n        .segment prog2\n";
  const std::string save_data = data_;
  data_.clear();
  const std::string gp = Label("gp");
  Data(gp, StrFormat(".its  %u, gate1, 0", shape_.start_ring));
  const std::string d = Label("d");
  Data(d, StrFormat(".word %llu", static_cast<unsigned long long>(rng_.Below(500))));
  const uint64_t count = rng_.Between(50, 400);
  Code("entry2", "nop");
  const Loop loop = OpenLoop(count);
  Code(StrFormat("lda   %s", d.c_str()));
  Code("adai  7");
  Code(StrFormat("epp   pr2, %s,*", gp.c_str()));
  Code("call  pr2|0");
  CloseLoop(loop);
  Charge(count, 10);
  Code("ldai  0");
  Code("mme   0");
  code_ += data_;
  data_ = save_data;
}

void Gen::EmitGateSegments() {
  code_ += "\n        .segment gate1\n";
  code_ += StrFormat("        .gates %d\n", shape_.gate1_gates);
  std::vector<std::string> bodies;
  for (int g = 0; g < shape_.gate1_gates; ++g) {
    bodies.push_back(Label("gb"));
    Code(StrFormat("tra   %s", bodies.back().c_str()));
  }
  const std::string gptr = Label("gd");
  for (int g = 0; g < shape_.gate1_gates; ++g) {
    // Each gate body does a little ring-1 work against gdata, then
    // returns. Bodies may clobber A/Q; callers reload.
    switch (rng_.Below(3)) {
      case 0:
        Code(bodies[static_cast<size_t>(g)], StrFormat("aos   %s,*", gptr.c_str()));
        break;
      case 1:
        Code(bodies[static_cast<size_t>(g)], StrFormat("ldq   %s,*", gptr.c_str()));
        Code(StrFormat("stq   %s,*", gptr.c_str()));
        break;
      default:
        Code(bodies[static_cast<size_t>(g)], StrFormat("lda   %s,*", gptr.c_str()));
        Code("adai  2");
        Code(StrFormat("sta   %s,*", gptr.c_str()));
        break;
    }
    Code("ret   pr7|0");
  }
  Data(gptr, ".its  1, gdata, 0");
  code_ += data_;
  data_.clear();
  code_ += "\n        .segment gdata\n        .block 4\n";

  if (shape_.gate2) {
    code_ += "\n        .segment gate2\n        .gates 1\n";
    const std::string body = Label("gb");
    const std::string tp = Label("tp");
    Code(StrFormat("tra   %s", body.c_str()));
    Code(body, StrFormat("aos   %s,*", tp.c_str()));
    Code(StrFormat("lda   %s,*", tp.c_str()));
    Code("ret   pr7|0");
    Data(tp, ".its  2, tally2, 0");
    code_ += data_;
    data_.clear();
    code_ += "\n        .segment tally2\n        .word 0\n";
  }
}

std::string Gen::Build() {
  shape_.start_ring = rng_.Chance(3, 4) ? 4 : static_cast<unsigned>(rng_.Between(3, 5));
  shape_.main_writable = rng_.Chance(1, 3);
  shape_.paged = rng_.Chance(1, 2);
  shape_.paged_pages = static_cast<unsigned>(rng_.Between(2, 8));
  shape_.paged_populate = rng_.Chance(1, 6);
  shape_.gate2 = rng_.Chance(1, 3);
  shape_.second_process = rng_.Chance(1, 4);
  shape_.gate1_gates = static_cast<int>(rng_.Between(1, 3));
  const unsigned sr = shape_.start_ring;

  std::string out;
  out += StrFormat("; fuzz guest, seed %llu — generated by GenerateGuest (src/fuzz)\n",
                   static_cast<unsigned long long>(seed_));
  out += StrFormat(";; acl main * procedure %u %u%s\n", sr, sr,
                   shape_.main_writable ? " write" : "");
  out += StrFormat(";; acl work * data %u %u\n", sr, sr);
  out += StrFormat(";; acl ptrs * rodata %u\n", sr);
  out += ";; acl gate1 * procedure 1 1 7\n";
  out += StrFormat(";; acl gdata * data 1 %u\n", sr);
  if (shape_.gate2) {
    out += ";; acl gate2 * procedure 2 2 5\n";
    out += StrFormat(";; acl tally2 * data 2 %u\n", sr);
  }
  if (shape_.paged) {
    out += StrFormat(";; acl pd0 * data %u %u\n", sr, sr);
    out += StrFormat(";; segment pd0 %u paged %s\n", shape_.paged_pages * 1024,
                     shape_.paged_populate ? "populate" : "demand");
  }
  if (shape_.second_process) {
    out += StrFormat(";; acl prog2 * procedure %u %u\n", sr, sr);
  }
  out += StrFormat(";; start main start %u user1\n", sr);
  if (shape_.second_process) {
    out += StrFormat(";; start prog2 entry2 %u user2\n", sr);
  }

  code_ += "\n        .segment main\nstart:  nop\n";
  const int steps = static_cast<int>(
      rng_.Between(static_cast<uint64_t>(config_.min_steps), static_cast<uint64_t>(config_.max_steps)));
  for (int s = 0; s < steps; ++s) {
    // The first step is always a gate-call loop: calls re-executed from
    // blocks are where the superblock engine earns its keep (and
    // where the ablation oracle must be able to bite).
    const uint64_t pick = s == 0 ? 0 : rng_.Below(10);
    switch (pick) {
      case 0:
      case 1:
      case 2:
        StepGateCallLoop();
        break;
      case 3:
      case 4:
        StepComputeLoop();
        break;
      case 5:
        StepIndirectChain();
        break;
      case 6:
        if (shape_.main_writable) {
          StepSmcLoop();
        } else {
          StepComputeLoop();
        }
        break;
      case 7:
        if (shape_.paged) {
          StepPagedTouch();
        } else {
          StepIndirectChain();
        }
        break;
      case 8:
        StepTtyWrite();
        break;
      default:
        if (shape_.gate2) {
          StepGate2Loop();
        } else {
          StepGateCallLoop();
        }
        break;
    }
  }
  EmitTerminal();
  code_ += data_;
  data_.clear();

  if (shape_.second_process) {
    EmitSecondProcess();
  }
  EmitGateSegments();

  std::string segments;
  segments += StrFormat("\n        .segment work\n        .block %d\n", work_words_ + 8);
  segments += "\n        .segment ptrs\n";
  if (ptr_words_ == 0) {
    // Keep the segment non-empty (and give the no-gate2 violation probe a
    // word to aim at).
    segments += "        .word 0\n";
  } else {
    segments += ptrs_;
  }

  return out + code_ + segments;
}

}  // namespace

GeneratedGuest GenerateGuest(uint64_t seed, const GeneratorConfig& config) {
  GeneratedGuest guest;
  guest.seed = seed;
  guest.source = Gen(seed, config).Build();
  return guest;
}

}  // namespace rings
