// Versioned binary (de)serialization of a compiled hls::Design — the
// payload format of the runner's on-disk design cache. Everything
// core::Session needs to run without recompiling travels: the embedded
// ir::Kernel (op arena, types, control tree), the full HlsOptions the
// design was compiled under, schedule tables (op_latency/op_start),
// per-loop scheduling info, design stats, area, and fmax.
//
// The encoding is little-endian and fixed-width (common/bytes.hpp), so
// bytes are identical across platforms, and deterministic: serializing
// the same design twice yields identical bytes. deserialize_design
// rejects malformed input (wrong magic/version, out-of-range enums,
// truncation) by throwing hlsprof::Error — it never crashes and never
// returns a half-built design. Callers that store designs on disk
// (runner::DiskDesignStore) additionally guard the payload with a
// content hash, so a thrown Error is a cache miss, not a failure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hls/design.hpp"

namespace hlsprof::hls {

/// Bump whenever the encoded layout of Design/Kernel/HlsOptions changes.
/// Entries written under a different version are rejected on read (the
/// disk cache treats that as a miss and recompiles).
inline constexpr std::uint32_t kDesignFormatVersion = 1;

/// Encode a design to bytes (leads with magic + kDesignFormatVersion).
std::string serialize_design(const Design& design);

/// The exact binary encoding of a kernel and the options it compiles
/// under — every input of compile() — as serialize_design writes them.
/// runner::DesignCache keys on its hash.
std::string encode_source(const ir::Kernel& kernel, const HlsOptions& options);

/// Decode. Throws hlsprof::Error on any malformed input: bad magic,
/// version mismatch, out-of-range enum/lane/opcode values, or truncated
/// buffers (every read is bounds-checked).
Design deserialize_design(std::string_view bytes);

}  // namespace hlsprof::hls
