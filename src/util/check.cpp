#include "util/check.hpp"

#include <sstream>

namespace plansep::detail {

void check_failed(const char* cond, const char* file,
                  const std::string& msg) {
  std::ostringstream os;
  os << "PLANSEP_CHECK failed: (" << cond << ") at " << file;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace plansep::detail
