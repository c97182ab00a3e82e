#include "nn/serialization.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace fewner::nn {

namespace {
constexpr char kMagic[4] = {'F', 'E', 'W', 'N'};
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ofstream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream* in, T* value) {
  in->read(reinterpret_cast<char*>(value), sizeof(T));
  return in->good();
}
}  // namespace

util::Status SaveParameters(Module* module, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::InvalidArgument("cannot open '" + path + "'");
  out.write(kMagic, sizeof(kMagic));
  WritePod(&out, kVersion);
  auto named = module->NamedParameters();
  WritePod(&out, static_cast<uint64_t>(named.size()));
  for (auto& [name, param] : named) {
    WritePod(&out, static_cast<uint64_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    const auto& dims = param->shape().dims();
    WritePod(&out, static_cast<uint64_t>(dims.size()));
    for (int64_t d : dims) WritePod(&out, d);
    const auto& values = param->data();
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(float)));
  }
  if (!out) return util::Status::Internal("write failed for '" + path + "'");
  return util::Status::OK();
}

util::Status LoadParameters(Module* module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open '" + path + "'");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument("'" + path + "' is not a FEWNER checkpoint");
  }
  uint32_t version = 0;
  if (!ReadPod(&in, &version) || version != kVersion) {
    return util::Status::InvalidArgument("unsupported checkpoint version");
  }
  auto named = module->NamedParameters();
  uint64_t count = 0;
  if (!ReadPod(&in, &count) || count != named.size()) {
    return util::Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, module has " +
        std::to_string(named.size()));
  }
  // Every parameter is read and validated into a staging buffer before any
  // is written, so a mismatch or a short file leaves the module untouched.
  std::vector<std::vector<float>> staged;
  for (auto& [name, param] : named) {
    uint64_t name_len = 0;
    if (!ReadPod(&in, &name_len) || name_len > 4096) {
      return util::Status::InvalidArgument("corrupt checkpoint (name length)");
    }
    std::string stored_name(name_len, '\0');
    in.read(stored_name.data(), static_cast<std::streamsize>(name_len));
    if (stored_name != name) {
      return util::Status::InvalidArgument("parameter order mismatch: expected '" +
                                           name + "', found '" + stored_name + "'");
    }
    uint64_t rank = 0;
    if (!ReadPod(&in, &rank) || rank > 8) {
      return util::Status::InvalidArgument("corrupt checkpoint (rank)");
    }
    std::vector<int64_t> dims(rank);
    for (auto& d : dims) {
      if (!ReadPod(&in, &d)) {
        return util::Status::InvalidArgument("corrupt checkpoint (dims)");
      }
    }
    if (tensor::Shape(dims) != param->shape()) {
      return util::Status::InvalidArgument("shape mismatch for '" + name + "'");
    }
    std::vector<float>& values = staged.emplace_back(param->data().size());
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
    if (!in) return util::Status::InvalidArgument("corrupt checkpoint (values)");
  }
  RestoreParameterValues(module, staged);  // Parameters() is NamedParameters' order
  return util::Status::OK();
}

}  // namespace fewner::nn
