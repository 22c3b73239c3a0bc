// Name -> Kernel registry shared by the CLI and the serve front end.
//
// One table so "matmul" means the same workload to every entry point —
// the serve result store keys cached sweeps by registry name, which is
// only sound if that name denotes exactly one kernel everywhere.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "memx/loopir/kernel.hpp"

namespace memx {

/// Registered benchmark names, in presentation order.
[[nodiscard]] const std::vector<std::string>& kernelRegistryNames();

/// The registered kernel called `name`. Throws memx::ContractViolation
/// (listing the valid names) when `name` is not registered. Paths are
/// not resolved here; see kernelByNameOrPath.
[[nodiscard]] Kernel registeredKernel(const std::string& name);

/// Whether `name` denotes a kernel file rather than a registered name:
/// it contains '/' or ends in ".mx". The one rule every entry point
/// resolves workload names by.
[[nodiscard]] bool isKernelPath(std::string_view name) noexcept;

/// CLI-style lookup: a path (see isKernelPath) is parsed as a kernel
/// file, anything else goes through registeredKernel.
/// Throws memx::ContractViolation when the file cannot be opened and
/// propagates parser errors.
[[nodiscard]] Kernel kernelByNameOrPath(const std::string& name);

}  // namespace memx
