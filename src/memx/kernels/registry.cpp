#include "memx/kernels/registry.hpp"

#include <fstream>

#include "memx/kernels/benchmarks.hpp"
#include "memx/kernels/extra_kernels.hpp"
#include "memx/loopir/kernel_parser.hpp"
#include "memx/util/assert.hpp"

namespace memx {

const std::vector<std::string>& kernelRegistryNames() {
  static const std::vector<std::string> names = {
      "compress",  "matmul", "matadd", "pde",    "sor",      "dequant",
      "transpose", "lu",     "fir",    "matvec", "histogram"};
  return names;
}

Kernel registeredKernel(const std::string& name) {
  if (name == "compress") return compressKernel();
  if (name == "matmul") return matMulKernel();
  if (name == "matadd") return matrixAddKernel(6, 1);
  if (name == "pde") return pdeKernel();
  if (name == "sor") return sorKernel();
  if (name == "dequant") return dequantKernel();
  if (name == "transpose") return transposeKernel();
  if (name == "lu") return luKernel();
  if (name == "fir") return firKernel();
  if (name == "matvec") return matVecKernel();
  if (name == "histogram") return histogramKernel();
  std::string valid;
  for (const std::string& n : kernelRegistryNames()) {
    if (!valid.empty()) valid += ' ';
    valid += n;
  }
  throw ContractViolation("unknown kernel '" + name + "'; known: " + valid);
}

bool isKernelPath(std::string_view name) noexcept {
  return name.find('/') != std::string_view::npos ||
         (name.size() > 3 && name.ends_with(".mx"));
}

Kernel kernelByNameOrPath(const std::string& name) {
  if (isKernelPath(name)) {
    std::ifstream file(name);
    if (!file) throw ContractViolation("cannot open kernel file " + name);
    return parseKernel(file, name);
  }
  return registeredKernel(name);
}

}  // namespace memx
