// The `;;` guest manifest: the self-contained header a guest program file
// carries so one source file fully describes a runnable machine — access
// control lists, process start points, tty input, and (for paged
// workloads) pre-created segments that exist outside the assembled
// program. Directive lines are ordinary `;` comments to the assembler:
//
//   ;; acl <segment> <user|*> procedure <r1> <r2> [<r3>] [write]
//   ;; acl <segment> <user|*> data <write_top> <read_top>
//   ;; acl <segment> <user|*> rodata <read_top>
//   ;; segment <name> <words> paged [demand|populate]
//   ;; start <segment> <entry> <ring> [<user>]
//   ;; tty-input <text until end of line>
//
// `;; segment` creates a paged segment (demand-zero by default) through
// the registry before the program is loaded, so `.its` references to it
// resolve normally; its access comes from a matching `;; acl` line. This
// is what lets the fuzzer emit demand-paging guests as single repro files
// ringsim can replay directly.
//
// Shared, through BootGuest, by ringsim, the serving core and the
// differential fuzz harness (src/fuzz), which must build bit-comparable
// machines from one source of truth.
#ifndef SRC_SYS_MANIFEST_H_
#define SRC_SYS_MANIFEST_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sup/acl.h"
#include "src/sys/machine.h"

namespace rings {

struct StartSpec {
  std::string segment;
  std::string entry;
  Ring ring = kUserRing;
  std::string user = "user";
};

// A segment created through the registry before program load (today only
// paged segments need this; assembled segments carry their own words).
struct ManifestSegment {
  std::string name;
  uint64_t words = 0;
  bool populate = false;  // false: demand-zero, pages fault in
};

struct Manifest {
  std::map<std::string, AccessControlList> acls;
  std::vector<StartSpec> starts;
  std::vector<ManifestSegment> segments;
  std::string tty_input;
  std::string error;

  bool ok() const { return error.empty(); }
};

Manifest ParseManifest(const std::string& source);

// Builds the machine a source file describes: creates every `;; segment`,
// loads `program` under the manifest ACLs, feeds the tty input, and
// logs in + starts every `;; start` process. Returns false with a
// structured *error (machine state is then unspecified; discard it).
// Tracing is left to the caller.
bool InstantiateGuest(const Program& program, const Manifest& manifest, Machine* machine,
                      std::string* error);

// The one boot path for a hosted guest: constructs a machine of `config`
// and instantiates the guest on it. `trace` enables the event trace
// before any process starts (the trace then covers the whole run and is
// folded into the fingerprint). Null with a structured *error on failure.
std::unique_ptr<Machine> BootGuest(const MachineConfig& config, const Program& program,
                                   const Manifest& manifest, std::string* error,
                                   bool trace = false);

}  // namespace rings

#endif  // SRC_SYS_MANIFEST_H_
