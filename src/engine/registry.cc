#include "engine/registry.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "baselines/hexgen.h"
#include "baselines/splitwise.h"
#include "hetis/hetis_engine.h"

namespace hetis::engine {
namespace {

/// `Eng` built from the options tagged `tag`, with the tenant priorities.
template <typename Eng, typename Config>
std::unique_ptr<Engine> build(const char* tag, const hw::Cluster& cluster,
                              const model::ModelSpec& model, const EngineOptions& opts) {
  auto eng = std::make_unique<Eng>(cluster, model, opts.get_or_default<Config>(tag));
  if (!opts.tenant_priorities.empty()) eng->set_tenant_priorities(opts.tenant_priorities);
  return eng;
}

}  // namespace

std::string ascii_lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::vector<std::string> engine_names() { return {"hetis", "hexgen", "splitwise"}; }

std::unique_ptr<Engine> make(const std::string& name, const hw::Cluster& cluster,
                             const model::ModelSpec& model, const EngineOptions& opts) {
  const std::string key = ascii_lower(name);
  if (key == "hetis") return build<core::HetisEngine, HetisConfig>("hetis", cluster, model, opts);
  if (key == "hexgen") {
    return build<baselines::HexgenEngine, HexgenConfig>("hexgen", cluster, model, opts);
  }
  if (key == "splitwise") {
    return build<baselines::SplitwiseEngine, SplitwiseConfig>("splitwise", cluster, model, opts);
  }
  std::ostringstream oss;
  oss << "engine::make: unknown engine '" << name << "'; known engines:";
  for (const auto& known : engine_names()) oss << " '" << known << "'";
  throw std::invalid_argument(oss.str());
}

}  // namespace hetis::engine
