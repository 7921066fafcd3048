#pragma once
// Text format for netlists: parser and writer.
//
// Line-oriented, whitespace-separated, '#' comments:
//
//     module mul2
//     input a0 a1 b0 b1
//     and s0 a0 b0
//     xor z0 s0 s3
//     output z0 z1
//     word A a0 a1          # words list their bit nets LSB-first
//     word B b0 b1
//     word Z z0 z1
//     endmodule
//
// Gate lines are "<type> <output-net> <fanin...>" with types from
// gate_type_name (buf/not take one fanin, const0/const1 none, the rest two or
// more). Gates may appear in any order; the netlist is re-topologized on use.
// A net is defined once, and a word name is declared once.
//
// The reader makes one pass over the text. Tokens are string_views into it;
// each net name is interned once into an open-addressed table of dense
// uint32_t ids, and each definition is stored as {type, name id, line,
// fanin range} over one flat array of fanin ids. No name is looked up by
// string after the pass: an explicit-stack DFS over the ids emits the nets
// fanins-first, in declaration order of the roots (so the same text always
// yields the same NetIds), and resolves outputs and word bits by id. Errors
// carry the line they concern: a net used but never defined reports the
// first gate that reads it in emission order, a word bit its `word` line.

#include <stdexcept>
#include <string>
#include <string_view>

#include "circuit/netlist.h"
#include "util/status.h"

namespace gfa {

struct ParseError : std::runtime_error {
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_number(line) {}
  std::size_t line_number;
};

/// Parses the text format; throws ParseError on malformed input.
Netlist parse_netlist(std::string_view text);

/// Reads and parses a netlist file; throws on I/O or parse failure.
Netlist read_netlist_file(const std::string& path);

/// Serializes to the text format (round-trips through parse_netlist).
std::string write_netlist(const Netlist& netlist);

/// Writes the text format to a file; throws on I/O failure.
void write_netlist_file(const Netlist& netlist, const std::string& path);

/// Non-throwing variants: ParseError maps to Status kParseError (carrying the
/// line-numbered message), I/O failure to kInvalidArgument.
Result<Netlist> try_parse_netlist(std::string_view text);
Result<Netlist> try_read_netlist_file(const std::string& path);

}  // namespace gfa
