// Fixture: environment overrides of library behaviour. Each marked line must
// fire exactly env-knob. NEVER compiled — linter self-test input only.

#include <cstdlib>

namespace fixture {

inline bool KernelOverride() {
  return std::getenv("FIXTURE_KERNEL") != nullptr;       // expect-lint: env-knob
}

inline const char* GlobalOverride() {
  return ::getenv("FIXTURE_THREADS");                    // expect-lint: env-knob
}

inline const char* SecureOverride() {
  return secure_getenv("FIXTURE_MODE");                  // expect-lint: env-knob
}

// An identifier merely containing "getenv" must NOT fire.
inline int forgetenvelope(int x) { return x; }
inline int UsesIt() { return forgetenvelope(1); }

}  // namespace fixture
