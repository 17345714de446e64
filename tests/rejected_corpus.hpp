#pragma once

// Reads one shrunk reproducer from tests/corpus/rejected/: inputs a
// loader or a resuming engine must reject with a named error (each once
// crashed, hung or printed nan). They live outside tests/corpus/*.inst so
// the replay battery, which expects loadable instances, never sees them.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace dlb::corpus {

[[nodiscard]] inline std::string rejected_path(const std::string& name) {
  return std::string(DLB_CORPUS_DIR) + "/rejected/" + name;
}

[[nodiscard]] inline std::string read_rejected(const std::string& name) {
  std::ifstream in(rejected_path(name));
  EXPECT_TRUE(in) << "missing corpus file " << name;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace dlb::corpus
