// Engine construction by name.
//
//   auto eng = engine::make("hetis", cluster, model, EngineOptions(cfg));
//
// Callers select systems by name and never include a concrete engine
// header.  Names are matched case-insensitively.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/options.h"
#include "hw/topology.h"
#include "model/llm.h"

namespace hetis::engine {

/// ASCII lowercase, used for case-insensitive engine-name matching (the
/// experiment harness matches per-engine options the same way).
std::string ascii_lower(const std::string& s);

/// The built-in engine names, sorted.
std::vector<std::string> engine_names();

/// Constructs the engine named `name` from its tagged options.  Throws
/// std::invalid_argument with the known names on an unknown name, and when
/// `opts` is tagged for a different system.
std::unique_ptr<Engine> make(const std::string& name, const hw::Cluster& cluster,
                             const model::ModelSpec& model,
                             const EngineOptions& opts = EngineOptions());

}  // namespace hetis::engine
