// Runtime dispatch: probe the CPU once at first use (thread-safe via the
// function-local static), clamp by what this binary was compiled with, and
// honor the SDB_KERNELS environment override for A/B runs and CI
// determinism checks. The override can only *lower* the tier — asking for a
// tier the hardware or build lacks, or naming no tier at all, falls back to
// the best available one with a warning.

#include "geom/kernels/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "geom/kernels/kernels_internal.h"

namespace sdb::geom::kernels {

namespace {

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CompiledAvx2() {
#if defined(SDB_KERNELS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

Level DetectBest() {
  return LevelAvailable(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

Level InitialLevel() {
  const Level best = DetectBest();
  const char* env = std::getenv("SDB_KERNELS");
  if (env == nullptr || env[0] == '\0') return best;
  const std::optional<Level> requested = ParseLevelName(env);
  if (!requested.has_value() || !LevelAvailable(*requested)) {
    std::fprintf(stderr, "warning: SDB_KERNELS=%s %s, using %s\n", env,
                 requested.has_value() ? "not available on this machine/build"
                                       : "is not a kernel tier (scalar|avx2)",
                 std::string(LevelName(best)).c_str());
    return best;
  }
  return *requested;
}

Level& ActiveLevelRef() {
  static Level level = InitialLevel();
  return level;
}

}  // namespace

Level ActiveLevel() { return ActiveLevelRef(); }

const Ops& OpsFor(Level level) {
  if (level == Level::kAvx2 && LevelAvailable(Level::kAvx2)) {
    return internal::kAvx2Ops;
  }
  return internal::kScalarOps;
}

const Ops& ActiveOps() { return OpsFor(ActiveLevel()); }

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
      return CompiledAvx2() && CpuHasAvx2();
  }
  return false;
}

std::string_view LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Level> ParseLevelName(std::string_view name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "avx2") return Level::kAvx2;
  return std::nullopt;
}

void ForceLevel(Level level) {
  ActiveLevelRef() = LevelAvailable(level) ? level : DetectBest();
}

}  // namespace sdb::geom::kernels
