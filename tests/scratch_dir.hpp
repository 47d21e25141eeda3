#pragma once

// One fresh directory under the system temp directory per object, made by
// mkdtemp (so no two tests or test processes ever share one) and removed
// with everything in it when the object goes out of scope.

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

class ScratchDir {
 public:
  /// The directory is named plansep_<tag>_XXXXXX, the X's made unique.
  explicit ScratchDir(const char* tag)
      : path_((std::filesystem::temp_directory_path() /
               (std::string("plansep_") + tag + "_XXXXXX"))
                  .string()) {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + path_);
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};
