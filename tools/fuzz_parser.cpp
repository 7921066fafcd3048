// fuzz_parser — deterministic coverage-free fuzzer for the two text parsers.
//
//   fuzz_parser [--seed=<n>] [--iterations=<n>] [--seconds=<s>]
//
// Drives try_parse_netlist / try_parse_verilog (the non-throwing entry
// points) with three families of input per iteration:
//   1. generated — structurally plausible netlist/Verilog text assembled from
//      the grammar's keywords, so the deep parser paths actually execute;
//   2. mutated — a valid seed document with byte-level corruption (flips,
//      splices, truncation, token duplication);
//   3. garbage — raw random bytes.
// Any outcome is acceptable EXCEPT a crash, a sanitizer report, or an
// uncaught exception escaping the try_ wrappers: those APIs promise a Status
// for arbitrary input. Successfully parsed netlists are additionally
// validated and round-tripped (write → reparse), which is what caught the
// recursion and overflow bugs this harness exists to guard (see DESIGN.md
// "Robustness & fault tolerance"). A reparsed netlist must have the same
// structure as the first parse: module name, every net's type and fanins by
// name, inputs, outputs and words.
//
// Exit code: 0 when the run completes, 2 on the first contract violation.
// The PRNG is xorshift64 seeded from --seed, so every failure reproduces
// with `fuzz_parser --seed=<printed seed> --iterations=1` plus the printed
// iteration offset.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "circuit/parser.h"
#include "circuit/verilog.h"
#include "util/parse_number.h"

namespace {

using namespace gfa;

// xorshift64: deterministic, seed-reproducible, no global state.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed ? seed : 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
  bool chance(unsigned percent) { return below(100) < percent; }
};

const char* const kNetlistKeywords[] = {"module", "endmodule", "input",
                                        "output", "word",      "and",
                                        "xor",    "or",        "not",
                                        "buf",    "nand",      "nor",
                                        "xnor",   "const0",    "const1"};

const char* const kVerilogKeywords[] = {
    "module", "endmodule", "input", "output", "wire",  "assign", "and",
    "or",     "xor",       "not",   "buf",    "nand",  "nor",    "xnor",
    "(",      ")",         "[",     "]",      ";",     ",",      "=",
    "&",      "|",         "^",     "~",      ":",     "//",     "/*"};

std::string rand_name(Rng& rng) {
  static const char* pool[] = {"a", "b", "z", "n0", "n1", "n2", "t",
                               "s", "x", "a0", "b1", "z0", "w",  "g"};
  std::string name = pool[rng.below(sizeof(pool) / sizeof(pool[0]))];
  if (rng.chance(30)) name += std::to_string(rng.below(8));
  return name;
}

/// A structurally plausible netlist document: declared inputs, a gate soup
/// referencing mostly-known nets, outputs, words. ~Half parse cleanly.
std::string gen_netlist(Rng& rng) {
  std::string text = "module fuzz\n";
  std::vector<std::string> nets;
  const std::size_t inputs = 1 + rng.below(6);
  text += "input";
  for (std::size_t i = 0; i < inputs; ++i) {
    nets.push_back("i" + std::to_string(i));
    text += " " + nets.back();
  }
  text += "\n";
  const std::size_t gates = rng.below(40);
  for (std::size_t g = 0; g < gates; ++g) {
    const char* kw = kNetlistKeywords[2 + rng.below(13)];
    std::string out = rng.chance(80) ? "g" + std::to_string(g) : rand_name(rng);
    text += std::string(kw) + " " + out;
    const std::size_t fanins = rng.below(4);
    for (std::size_t f = 0; f < fanins; ++f) {
      text += " ";
      text += rng.chance(85) && !nets.empty()
                  ? nets[rng.below(nets.size())]
                  : rand_name(rng);
    }
    text += "\n";
    nets.push_back(std::move(out));
  }
  if (rng.chance(70) && !nets.empty())
    text += "output " + nets[rng.below(nets.size())] + "\n";
  if (rng.chance(40) && nets.size() >= 2)
    text += "word W " + nets[0] + " " + nets[1] + "\n";
  // Deep chains exercise the iterative dependency-order emitter.
  if (rng.chance(10)) {
    const std::size_t depth = 1000 + rng.below(4000);
    text += "buf c0 i0\n";
    for (std::size_t d = 1; d < depth; ++d)
      text += "buf c" + std::to_string(d) + " c" + std::to_string(d - 1) + "\n";
  }
  text += "endmodule\n";
  return text;
}

/// A plausible Verilog document; exercises ranges, expressions, comments.
std::string gen_verilog(Rng& rng) {
  std::string text = "module fuzz (input [3:0] a, input [3:0] b";
  if (rng.chance(80)) text += ", output [3:0] z";
  text += ");\n";
  const std::size_t wires = rng.below(6);
  for (std::size_t w = 0; w < wires; ++w) {
    text += "  wire ";
    if (rng.chance(40))
      text += "[" + std::to_string(rng.below(64)) + ":0] ";
    text += "w" + std::to_string(w) + ";\n";
  }
  const std::size_t assigns = rng.below(12);
  for (std::size_t i = 0; i < assigns; ++i) {
    text += "  assign z[" + std::to_string(rng.below(4)) + "] = ";
    std::string expr = "a[" + std::to_string(rng.below(4)) + "]";
    const std::size_t ops = rng.below(6);
    for (std::size_t o = 0; o < ops; ++o) {
      const char* op = rng.chance(40) ? " ^ " : rng.chance(50) ? " & " : " | ";
      std::string term = rng.chance(30) ? "~" : "";
      term += rng.chance(50) ? "a" : "b";
      term += "[" + std::to_string(rng.below(4)) + "]";
      if (rng.chance(20)) term = "(" + term + ")";
      expr += op + term;
    }
    text += expr + ";\n";
  }
  if (rng.chance(30))
    text += "  and g0 (w0, a[0], b[0]);\n";
  if (rng.chance(15)) text += "  // trailing comment\n";
  if (rng.chance(10)) text += "  /* block\n comment */\n";
  // Deeply nested parens probe the expression-depth cap.
  if (rng.chance(8)) {
    const std::size_t depth = 100 + rng.below(400);
    std::string deep = "  assign z[0] = ";
    deep.append(depth, '(');
    deep += "a[0]";
    deep.append(depth, ')');
    text += deep + ";\n";
  }
  // Absurd vector widths probe the width cap / overflow guard.
  if (rng.chance(8)) {
    static const char* widths[] = {"99999999999999999999", "2147483647",
                                   "1048577", "4294967296"};
    text += "  wire [" + std::string(widths[rng.below(4)]) + ":0] huge;\n";
  }
  text += "endmodule\n";
  return text;
}

void mutate(Rng& rng, std::string& text) {
  if (text.empty()) return;
  const std::size_t edits = 1 + rng.below(8);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.below(5)) {
      case 0:  // flip a byte
        text[rng.below(text.size())] =
            static_cast<char>(rng.below(256));
        break;
      case 1:  // truncate
        text.resize(rng.below(text.size()));
        break;
      case 2: {  // splice a keyword mid-stream
        const char* kw = rng.chance(50)
                             ? kNetlistKeywords[rng.below(15)]
                             : kVerilogKeywords[rng.below(28)];
        text.insert(rng.below(text.size() + 1), kw);
        break;
      }
      case 3: {  // duplicate a random slice
        const std::size_t at = rng.below(text.size());
        const std::size_t len = rng.below(text.size() - at) % 64;
        text.insert(rng.below(text.size() + 1), text.substr(at, len));
        break;
      }
      case 4:  // insert raw bytes
        for (std::size_t i = 0, n = rng.below(16); i < n; ++i)
          text.insert(text.begin() + rng.below(text.size() + 1),
                      static_cast<char>(rng.below(256)));
        break;
    }
    if (text.empty()) return;
  }
}

std::string gen_garbage(Rng& rng) {
  std::string text;
  const std::size_t n = rng.below(2048);
  text.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    text += static_cast<char>(rng.below(256));
  return text;
}

/// The first structural difference between a netlist and its reparse, or
/// "". Net ids may differ (the writer emits in topological order), so nets
/// are matched by name.
std::string structure_difference(const Netlist& a, const Netlist& b) {
  if (a.name() != b.name()) return "module name";
  if (a.num_nets() != b.num_nets()) return "net count";
  const auto names = [](const Netlist& nl, const std::vector<NetId>& ids) {
    std::vector<std::string> out;
    for (NetId n : ids) out.push_back(nl.gate(n).name);
    return out;
  };
  for (NetId n = 0; n < a.num_nets(); ++n) {
    const Netlist::Gate& ga = a.gate(n);
    const NetId m = b.find_net(ga.name);
    if (m == kNoNet) return "net '" + ga.name + "' lost";
    const Netlist::Gate& gb = b.gate(m);
    if (ga.type != gb.type || names(a, ga.fanins) != names(b, gb.fanins))
      return "net '" + ga.name + "' changed";
  }
  if (names(a, a.inputs()) != names(b, b.inputs())) return "inputs";
  if (names(a, a.outputs()) != names(b, b.outputs())) return "outputs";
  if (a.words().size() != b.words().size()) return "word count";
  for (std::size_t w = 0; w < a.words().size(); ++w)
    if (a.words()[w].name != b.words()[w].name ||
        names(a, a.words()[w].bits) != names(b, b.words()[w].bits))
      return "word '" + a.words()[w].name + "'";
  return {};
}

/// One input through one parser. Returns false on a contract violation
/// (the try_ API let an exception escape, or a parsed netlist fails
/// validate() or its write → reparse round trip).
bool drive_netlist(const std::string& text) {
  Result<Netlist> parsed = try_parse_netlist(text);
  if (!parsed.ok()) return true;  // a clean Status for bad input is the point
  const std::string problem = parsed->validate();
  if (!problem.empty()) {
    std::fprintf(stderr, "parsed netlist fails validate(): %s\n",
                 problem.c_str());
    return false;
  }
  Result<Netlist> again = try_parse_netlist(write_netlist(*parsed));
  if (!again.ok()) {
    std::fprintf(stderr, "round-trip reparse failed: %s\n",
                 again.status().to_string().c_str());
    return false;
  }
  if (const std::string diff = structure_difference(*parsed, *again);
      !diff.empty()) {
    std::fprintf(stderr, "round trip changed the netlist: %s\n", diff.c_str());
    return false;
  }
  return true;
}

bool drive_verilog(const std::string& text) {
  Result<Netlist> parsed = try_parse_verilog(text);
  if (!parsed.ok()) return true;
  const std::string problem = parsed->validate();
  if (!problem.empty()) {
    std::fprintf(stderr, "parsed verilog fails validate(): %s\n",
                 problem.c_str());
    return false;
  }
  Result<Netlist> again = try_parse_verilog(write_verilog(*parsed));
  if (!again.ok()) {
    std::fprintf(stderr, "verilog round-trip reparse failed: %s\n",
                 again.status().to_string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 10000;
  double seconds = 0;  // 0 = iteration-bounded only
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    if (name == "--seed") {
      gfa::Result<std::uint64_t> v = gfa::parse_u64(value);
      if (!v.ok()) { std::fprintf(stderr, "bad --seed\n"); return 64; }
      seed = *v;
    } else if (name == "--iterations") {
      gfa::Result<std::uint64_t> v = gfa::parse_u64(value);
      if (!v.ok()) { std::fprintf(stderr, "bad --iterations\n"); return 64; }
      iterations = *v;
    } else if (name == "--seconds") {
      gfa::Result<double> v = gfa::parse_double(value, 0.0, 1e9);
      if (!v.ok()) { std::fprintf(stderr, "bad --seconds\n"); return 64; }
      seconds = *v;
    } else {
      std::fprintf(stderr,
                   "usage: fuzz_parser [--seed=<n>] [--iterations=<n>]"
                   " [--seconds=<s>]\n");
      return 64;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    if (seconds <= 0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() >= seconds;
  };

  // --seconds makes the run time-bounded (iterations becomes a no-op upper
  // bound of "forever"); otherwise --iterations bounds it.
  Rng rng(seed);
  std::uint64_t done = 0;
  for (; seconds > 0 || done < iterations; ++done) {
    if (out_of_time()) break;
    const std::uint64_t kind = rng.below(6);
    std::string text;
    bool verilog = false;
    switch (kind) {
      case 0: text = gen_netlist(rng); break;
      case 1: text = gen_verilog(rng); verilog = true; break;
      case 2: text = gen_netlist(rng); mutate(rng, text); break;
      case 3: text = gen_verilog(rng); mutate(rng, text); verilog = true; break;
      case 4: text = gen_garbage(rng); break;
      case 5: text = gen_garbage(rng); verilog = true; break;
    }
    const bool ok = verilog ? drive_verilog(text) : drive_netlist(text);
    if (!ok) {
      std::fprintf(stderr,
                   "contract violation at seed=%llu iteration=%llu "
                   "(kind %llu, %zu bytes)\n",
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(kind), text.size());
      return 2;
    }
  }
  std::printf("fuzz_parser: %llu iterations clean (seed %llu)\n",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(seed));
  return 0;
}
