#pragma once
// Checkpoint/resume for the abstraction engine's reduction chain.
//
// A SIGKILLed (or OOM-killed, or crashed) isolated worker loses hours of
// backward rewriting at large k. The extractor can periodically serialize its
// progress — how many substitution steps are done and the accumulated
// intermediate polynomial — so a re-invocation with --resume picks the chain
// up where it stopped instead of starting over. Because the substitution
// order (RATO) is a pure function of the netlist, the pair (circuit content
// hash, step count) identifies the exact prefix of the reduction chain that
// has been applied; resuming is sound iff the hash matches.
//
// File layout (little-endian, CRC-guarded):
//
//   magic   8 bytes  "GFA_CKPT"
//   u32     version  (kCheckpointVersion)
//   u32     k        field degree
//   u64     circuit_hash  (netlist_content_hash of the abstracted circuit)
//   u32     word-name length, then that many bytes
//   u64     step     substitutions already applied
//   u64     term count, then per term (version-dependent, below)
//   u32     CRC-32 of everything above
//
// Term encodings:
//
//   v2 (read-only): u32 monomial length, then that many u32 net ids;
//     u64 coefficient word count, then that many u64s (Gf2Poly::words()).
//   v3 (written): varint monomial length; the ids delta-encoded — the first
//     id as a varint, each later one as the varint difference to its
//     predecessor (ids are strictly increasing, so every delta is ≥ 1);
//     varint coefficient word count, then that many raw u64s. Varints are
//     LEB128 (7 data bits per byte, high bit = continuation). Net ids in a
//     monomial are near-neighbors in practice, so a term costs a couple of
//     bytes instead of 4 per id.
//
// The loader accepts both versions; the writer emits only v3. Writes are
// atomic (tmp file + rename), so a crash mid-save leaves the previous
// checkpoint intact. Any damage — truncation, a flipped bit, a version from
// another build, non-increasing ids — loads as kInvalidArgument; callers
// treat that as "no checkpoint" and start fresh, never as data.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/bitpoly.h"
#include "circuit/netlist.h"
#include "gf2/gf2_poly.h"
#include "util/status.h"

namespace gfa::worker {

// Version 3: varint/delta term encoding (see the layout comment). Version 2
// files — fixed-width ids, snapshots taken at segment ends as in v3 — are
// still read; anything older is rejected.
inline constexpr std::uint32_t kCheckpointVersion = 3;
inline constexpr std::uint32_t kMinReadableCheckpointVersion = 2;

/// CRC-32 (IEEE 802.3, reflected) of `n` bytes.
std::uint32_t crc32(const void* data, std::size_t n);

/// FNV-1a content hash over everything that determines the reduction chain:
/// gate types, fanins, net names, word declarations, and outputs. Two
/// netlists hash equal iff resuming one's checkpoint in the other is sound.
std::uint64_t netlist_content_hash(const Netlist& netlist);

/// One word's reduction-chain state at `step` substitutions.
struct ReductionCheckpoint {
  std::uint32_t k = 0;
  std::uint64_t circuit_hash = 0;
  std::string word;   // output word being abstracted
  std::uint64_t step = 0;
  /// The intermediate polynomial, monomials sorted so the serialization is
  /// deterministic for a given state.
  std::vector<std::pair<BitMono, Gf2Poly>> terms;
};

/// The per-(circuit, word) file inside `dir`, named by the content hash so
/// distinct circuits sharing a directory never collide.
std::string checkpoint_path(const std::string& dir, std::uint64_t circuit_hash,
                            const std::string& word);

/// Makes sure `dir` exists and is writable, creating the final path component
/// if needed. A missing parent, a non-directory in the way, or a directory
/// this process cannot write into are all kInvalidArgument with the concrete
/// reason — callers surface that instead of the cryptic open error a later
/// save would produce. Used for both checkpoint and canonical-cache
/// directories before the first write.
Status ensure_directory(const std::string& dir);

/// Atomically writes `cp` to `path` (tmp + rename). Consumes the
/// "checkpoint:corrupt" fault site: when armed, the stored CRC is flipped so
/// integrity tests can prove a damaged file is rejected on load.
Status save_checkpoint(const std::string& path, const ReductionCheckpoint& cp);

/// Loads and validates a checkpoint. Truncation, a CRC mismatch, bad magic,
/// or a version skew are kInvalidArgument (with the reason); a missing file
/// is kInvalidArgument too, with "no checkpoint" in the message.
Result<ReductionCheckpoint> load_checkpoint(const std::string& path);

/// Best-effort unlink (success after a completed run).
void remove_checkpoint(const std::string& path);

}  // namespace gfa::worker
