// Binary save/load of module parameters, so a meta-trained θ can be stored
// and shipped (Algorithm 1 returns θ_Meta; this is how you keep it).
//
// Format (little-endian):
//   magic "FEWN" | uint32 version | uint64 param_count |
//   per parameter: uint64 name_len | name bytes | uint64 rank | int64 dims[] |
//                  float32 values[]
// Loading verifies names, shapes and count against the target module.

#pragma once

#include <string>

#include "nn/module.h"
#include "util/status.h"

namespace fewner::nn {

/// Writes all (named) parameters of `module` to `path`.
util::Status SaveParameters(Module* module, const std::string& path);

/// Reads parameters saved by SaveParameters into `module`, all or nothing.
/// Fails with InvalidArgument on any name/shape mismatch or truncated file
/// (the module must be constructed with the same configuration that produced
/// the file) and then leaves every parameter unchanged.
util::Status LoadParameters(Module* module, const std::string& path);

}  // namespace fewner::nn
