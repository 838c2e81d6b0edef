// Superblock cache: the host-side memo of straight-line decoded runs.
// Answering references from the resident descriptors (Cpu::Reference)
// makes each simulated instruction cheap; this cache makes
// the *dispatch between* instructions cheap by decoding a run of words
// once, at build, into a block that a single Cpu::StepBlock call executes
// straight through, paying the fetch-probe and address revalidation once
// per block instead of once per instruction.
//
// A block is a host artifact with no architectural footprint: every op
// charges exactly the cycles and counters of the per-instruction path
// taken with a memo hit, the per-instruction boundary work (timer,
// fault-injection hooks, trap capture state) runs before every op, and
// any event that could make the recorded run diverge from what the
// per-instruction path would do bails the remaining ops back to that
// path. Blocks are built only from unpaged segments and only while the
// checks are on (Cpu::ProbeOrBuildBlock); paged code and code run with the
// checks off take the per-instruction path. So an op's fetch address is
// the block's base plus its word number, fixed by the descriptor, and no
// translation can go stale under a block. Correctness rests on the
// dispatch-time validation (the block's segment has a resident descriptor
// that vouches for the fetch, with matching base/ring/bound) and on a
// monotonically increasing `version` that every invalidation bumps: the
// inner loop re-reads it before each op, so a mid-block SDW eviction,
// fault-injected cache drop, or store into code retires the rest of the
// block.
//
// An op whose operand is `L,*` with L in the block's own segment may also
// carry L's resolved Figure 5 step (Op::hop): the word was read and its
// ring maximized at build, so the op charges the hop as one add and reads
// only its final operand. The hop is derived from the block's segment
// exactly as the decodes are, so the same retirements keep it current: a
// store into L through the executable SDW, an SDW edit or eviction, or a
// flush (DESIGN.md §7, "Resolved link words").
//
// An op whose final operand address is fixed at build (Op::direct, or a
// hop that ends the chase) may also keep its operand memo: the absolute
// address and SDW execute flag of a validated read or write of an unpaged
// segment, or that a transfer to an unpaged segment was validated,
// stamped with the cache version it was filled at. Every event that could
// replace the SDW behind it or end its residency bumps the version, so
// the memo answers only while the stamp is current (DESIGN.md §7,
// "Resolved operands"). While it answers, Cpu::RunBlocks runs the op in
// its own loop (DESIGN.md §7, "Ops run in the loop").
#ifndef SRC_CPU_BLOCK_CACHE_H_
#define SRC_CPU_BLOCK_CACHE_H_

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "src/core/ring.h"
#include "src/isa/instruction.h"
#include "src/mem/word.h"

namespace rings {

class BlockCache {
 public:
  static constexpr size_t kEntries = 256;  // direct-mapped by (segno, start)
  static constexpr size_t kMaxOps = 32;
  // Sentinel for Block::link_slot: no successor patched in.
  static constexpr uint16_t kNoLink = 0xFFFF;

  // One pre-decoded instruction; its word number is the block's start plus
  // its index. An op whose operand is an indirect word in the block's own
  // segment may also carry that word's Figure 5 step, resolved at build
  // (Cpu::TryBuildBlock): the TPR it leaves behind and whether the chase
  // goes on. An op whose final TPR is fixed at build (`direct`, or a hop
  // that ends the chase) may also keep its operand memo: the absolute
  // address and SDW execute flag of a validated read or write, or that a
  // transfer was validated, valid for the kinds in `memo` while
  // the cache version equals `memo_version` (DESIGN.md §7, "Resolved
  // operands" and "Ops run in the loop").
  struct Op {
    // Bits of `memo`: the reference kinds the memo answers, and the SDW
    // execute flag a memoised store hands NoteStore. A transfer's memo
    // holds no address: its target's bound was checked when it was kept.
    static constexpr uint8_t kMemoRead = 1;
    static constexpr uint8_t kMemoWrite = 2;
    static constexpr uint8_t kMemoExecute = 4;
    static constexpr uint8_t kMemoTransfer = 8;

    Instruction ins{};
    Wordno hop_wordno = 0;
    AbsAddr memo_addr = 0;  // the operand's absolute address
    uint64_t memo_version = 0;
    bool needs_ea = false;
    bool hop = false;           // the hop_* fields hold the resolved first hop
    bool hop_indirect = false;  // the link word's I bit: the chase continues
    Ring hop_ring = 0;          // max(IPR.RING, IND.RING, SDW.R1)
    uint16_t hop_segno = 0;
    bool direct = false;  // untagged IPR-relative operand at a word number in range
    uint8_t memo = 0;     // kMemo* bits; none until a reference fills it
  };
  static_assert(sizeof(Op) <= 40, "a block of kMaxOps ops stays within 1.25 KiB");
  static_assert(kSegnoBits <= 16, "Op::hop_segno holds any segment number");

  struct Block {
    uint64_t gen = 0;  // valid iff equal to the cache's current generation
    Segno segno = 0;
    Wordno start = 0;
    uint16_t count = 0;
    Ring ring = 0;     // IPR.RING the block was built under
    AbsAddr base = 0;  // the segment's base at build time
    // Direct chaining (see DESIGN.md §7): the slot of the successor block
    // this one last transferred into, stamped with the cache version at
    // patch time. A link is only followed when link_version equals the
    // current version — every invalidation site bumps the version (or the
    // generation, which retires the target outright), so a stale link can
    // never be followed; it is simply dead until repatched. The builder
    // resets the link when a slot is repurposed.
    uint16_t link_slot = kNoLink;
    uint64_t link_version = 0;
    // Whether the terminator op may chain into a successor at all
    // (Cpu::ChainEligible, precomputed at build time so the chain point
    // tests one flag instead of re-deriving it per transition).
    bool chain_ok = false;
    // Host shortcut: the fixed simulated-cycle charge every op in this
    // block pays before execution (instruction base + fetch check + the
    // fetch read), folded into one add at build time. Identical to the sum
    // the per-instruction path charges piecewise.
    uint64_t op_charge = 0;
    // The same fold for a resolved hop: the indirect word's check plus its
    // read.
    uint64_t hop_charge = 0;
    std::array<Op, kMaxOps> ops{};
  };

  // The published block starting at (segno, start), or nullptr. Mutable:
  // the chaining engine patches successor links into live blocks.
  Block* Lookup(Segno segno, Wordno start) const {
    if (blocks_ == nullptr) {
      return nullptr;
    }
    Block& b = blocks_[Index(segno, start)];
    if (b.gen == gen_ && b.segno == segno && b.start == start) {
      return &b;
    }
    return nullptr;
  }

  // Link-follow accessors: a patched link names a slot, not a pointer, so
  // the follower re-reads the slot and revalidates what it holds now.
  // Links are only ever patched into built blocks, so a followed link
  // implies the backing store exists.
  Block* BlockAt(uint16_t slot) { return &blocks_[slot % kEntries]; }
  uint16_t SlotIndexOf(const Block* block) const {
    return static_cast<uint16_t>(block - blocks_.get());
  }

  // The slot a block starting at (segno, start) builds into; the builder
  // fills it in place and stamps `gen` with generation() to publish it.
  // First build allocates the backing store (see blocks_ below).
  Block* SlotFor(Segno segno, Wordno start) {
    if (blocks_ == nullptr) {
      blocks_.reset(static_cast<Block*>(std::calloc(kEntries, sizeof(Block))));
    }
    return &blocks_[Index(segno, start)];
  }

  // Retires every block built from `segno` (its SDW was edited, dropped,
  // or a store landed in its code). Returns blocks dropped; always bumps
  // the version so an in-flight block bails.
  size_t InvalidateSegment(Segno segno);

  // O(1) whole-cache invalidation (generation bump); wired to every event
  // that retires the descriptor regime wholesale (DBR reloads, SDW-cache
  // flushes, behind-the-back stores, engine/fast-path toggles).
  void Flush() {
    ++gen_;
    ++version_;
  }

  // Signals that derived state changed under a possibly-running block
  // without retiring any stored block (e.g. an SDW-cache insert evicting
  // whatever a slot held); the inner loop bails and revalidates.
  void BumpVersion() { ++version_; }
  uint64_t version() const { return version_; }
  uint64_t generation() const { return gen_; }

 private:
  static size_t Index(Segno segno, Wordno start) {
    return (start ^ (static_cast<uint32_t>(segno) * 0x9E3779B1u)) & (kEntries - 1);
  }

  uint64_t gen_ = 1;  // blocks zero-initialize to gen 0 == invalid
  uint64_t version_ = 0;
  // The backing store is calloc'd on first build, not an inline array:
  // 256 blocks of 32 decoded ops each are 338 KiB (256 x 1352 B), and
  // paying for that at construction (whether as inline zero-fill or as an
  // eager mmap-class allocation) dominated Machine construction — which a
  // fleet daemon pays per spawned clone. A null store reads as an empty
  // cache; the first SlotFor call allocates, and calloc's zero bytes are a
  // valid empty state because gen 0 == invalid. Block is an
  // implicit-lifetime aggregate, so the calloc'd array is usable without
  // placement-new.
  static_assert(std::is_trivially_destructible_v<Block>);
  static_assert(std::is_trivially_copyable_v<Block>);
  struct FreeDeleter {
    void operator()(Block* p) const { std::free(p); }
  };
  std::unique_ptr<Block[], FreeDeleter> blocks_;
};

}  // namespace rings

#endif  // SRC_CPU_BLOCK_CACHE_H_
