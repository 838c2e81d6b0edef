#include "src/sys/manifest.h"

#include <sstream>

#include "src/base/strings.h"

namespace rings {

namespace {

bool ParseRingValue(const std::string& text, unsigned* out) {
  if (text.size() != 1 || text[0] < '0' || text[0] > '7') {
    return false;
  }
  *out = static_cast<unsigned>(text[0] - '0');
  return true;
}

}  // namespace

Manifest ParseManifest(const std::string& source) {
  Manifest manifest;
  std::istringstream stream(source);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::string_view trimmed = StripWhitespace(line);
    if (trimmed.substr(0, 2) != ";;") {
      continue;
    }
    const std::string body(StripWhitespace(trimmed.substr(2)));
    std::istringstream words(body);
    std::string verb;
    words >> verb;
    if (verb == "acl") {
      std::string segment;
      std::string user;
      std::string kind;
      words >> segment >> user >> kind;
      SegmentAccess access;
      unsigned a = 0;
      unsigned b = 0;
      unsigned c = 0;
      std::string sa, sb, sc;
      if (kind == "procedure") {
        words >> sa >> sb;
        if (!ParseRingValue(sa, &a) || !ParseRingValue(sb, &b)) {
          manifest.error = StrFormat("line %d: bad procedure rings", line_no);
          return manifest;
        }
        c = b;
        bool writable = false;
        while (words >> sc) {
          if (sc == "write") {
            writable = true;
          } else if (!ParseRingValue(sc, &c)) {
            manifest.error = StrFormat("line %d: bad gate extension", line_no);
            return manifest;
          }
        }
        access = MakeProcedureSegment(static_cast<Ring>(a), static_cast<Ring>(b),
                                      static_cast<Ring>(c), /*gate_count=*/0);
        // `write` makes the segment self-modifiable within its write
        // bracket [0, r1] — the fuzzer's store-into-code workloads.
        access.flags.write = writable;
      } else if (kind == "data") {
        words >> sa >> sb;
        if (!ParseRingValue(sa, &a) || !ParseRingValue(sb, &b)) {
          manifest.error = StrFormat("line %d: bad data rings", line_no);
          return manifest;
        }
        access = MakeDataSegment(static_cast<Ring>(a), static_cast<Ring>(b));
      } else if (kind == "rodata") {
        words >> sa;
        if (!ParseRingValue(sa, &a)) {
          manifest.error = StrFormat("line %d: bad rodata ring", line_no);
          return manifest;
        }
        access = MakeReadOnlyDataSegment(static_cast<Ring>(a));
      } else {
        manifest.error = StrFormat("line %d: unknown acl kind '%s'", line_no, kind.c_str());
        return manifest;
      }
      if (!access.brackets.IsWellFormed()) {
        manifest.error = StrFormat("line %d: ill-formed brackets", line_no);
        return manifest;
      }
      manifest.acls[segment].Add(AclEntry{user, access});
    } else if (verb == "segment") {
      ManifestSegment spec;
      std::string kind;
      std::string fill;
      unsigned long long count = 0;
      words >> spec.name >> count >> kind;
      if (spec.name.empty() || count == 0 || count > (1ull << 22) || kind != "paged") {
        manifest.error = StrFormat(
            "line %d: bad segment directive (want: segment <name> <words> paged "
            "[demand|populate])",
            line_no);
        return manifest;
      }
      spec.words = count;
      if (words >> fill) {
        if (fill == "populate") {
          spec.populate = true;
        } else if (fill != "demand") {
          manifest.error = StrFormat("line %d: bad segment fill '%s'", line_no, fill.c_str());
          return manifest;
        }
      }
      manifest.segments.push_back(spec);
    } else if (verb == "start") {
      StartSpec spec;
      std::string ring_text;
      words >> spec.segment >> spec.entry >> ring_text;
      unsigned ring = 0;
      if (spec.segment.empty() || spec.entry.empty() || !ParseRingValue(ring_text, &ring)) {
        manifest.error = StrFormat("line %d: bad start directive", line_no);
        return manifest;
      }
      spec.ring = static_cast<Ring>(ring);
      std::string user;
      if (words >> user) {
        spec.user = user;
      }
      manifest.starts.push_back(spec);
    } else if (verb == "tty-input") {
      const size_t pos = body.find("tty-input");
      manifest.tty_input += std::string(StripWhitespace(body.substr(pos + 9)));
    } else if (!verb.empty()) {
      manifest.error = StrFormat("line %d: unknown directive '%s'", line_no, verb.c_str());
      return manifest;
    }
  }
  if (manifest.starts.empty()) {
    manifest.error = "no ';; start <segment> <entry> <ring>' directive found";
  }
  return manifest;
}

bool InstantiateGuest(const Program& program, const Manifest& manifest, Machine* machine,
                      std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  // Pre-created segments first, so the program's .its patches to them
  // resolve at load time.
  for (const ManifestSegment& spec : manifest.segments) {
    const auto acl = manifest.acls.find(spec.name);
    if (acl == manifest.acls.end()) {
      *err = StrFormat("segment %s has no ';; acl' line", spec.name.c_str());
      return false;
    }
    if (!machine->registry()
             .CreatePagedSegment(spec.name, spec.words, acl->second, spec.populate)
             .has_value()) {
      *err = StrFormat("cannot create paged segment %s", spec.name.c_str());
      return false;
    }
  }
  if (!machine->LoadProgram(program, manifest.acls, err)) {
    return false;
  }
  machine->TtyFeedInput(manifest.tty_input);
  for (const StartSpec& spec : manifest.starts) {
    Process* p = machine->Login(spec.user);
    if (p == nullptr) {
      *err = StrFormat("login failed for '%s'", spec.user.c_str());
      return false;
    }
    machine->supervisor().InitiateAll(p);
    if (!machine->Start(p, spec.segment, spec.entry, spec.ring)) {
      *err = StrFormat("cannot start %s$%s in ring %u", spec.segment.c_str(),
                       spec.entry.c_str(), spec.ring);
      return false;
    }
  }
  return true;
}

std::unique_ptr<Machine> BootGuest(const MachineConfig& config, const Program& program,
                                   const Manifest& manifest, std::string* error, bool trace) {
  auto machine = std::make_unique<Machine>(config);
  if (!machine->ok()) {
    *error = "machine construction failed";
    return nullptr;
  }
  if (trace) {
    machine->trace().set_enabled(true);
  }
  if (!InstantiateGuest(program, manifest, machine.get(), error)) {
    return nullptr;
  }
  return machine;
}

}  // namespace rings
