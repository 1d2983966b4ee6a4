// Shared value-parameterized fixture over seeded random IR programs.
//
// gtest instantiates every test of a fixture on the same parameters, and one
// test binary can hold only one fixture of a given name, so each binary
// instantiates this fixture on the seeds its own checks afford:
// property_test sweeps seeds 1-40, while ise_test runs the exponential
// exact-enumeration check on seeds 1-10 only.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "ir/module.hpp"
#include "ir/random_program.hpp"

namespace jitise::testing {

class RandomProgram : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ir::Module generate() const {
    ir::RandomProgramConfig config;
    config.seed = GetParam();
    config.num_functions = 1 + GetParam() % 3;
    config.blocks_per_function = 6 + GetParam() % 9;
    config.ops_per_block = 6 + GetParam() % 6;
    return ir::generate_random_program(config);
  }
};

}  // namespace jitise::testing
