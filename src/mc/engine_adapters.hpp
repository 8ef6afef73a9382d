/// \file
/// \brief The explicit-state model checker as a pluggable verify::Engine.
///
/// The adapter runs the paper's original tool path: Behavior Extraction
/// (core/translate) turns the query into an SMV model, then the explicit
/// checker decides the INVARSPEC.  It is registered in the engine registry
/// as "explicit-mc" so every consumer reaches it through the same seam as
/// the exact-integer engines; the registry seeds it (and "sat") via
/// verify::detail::register_translation_engines (defined here, in the MC
/// layer, because the translation lives above src/verify).
#pragma once

#include "verify/engine.hpp"

namespace fannet::mc {

/// SMV translation + enumerative reachability (mc/explicit).  Complete.
class ExplicitMcEngine final : public verify::Engine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "explicit-mc";
  }
  [[nodiscard]] bool complete() const noexcept override { return true; }
  /// One-step generic task around the translate-then-check decision.
  [[nodiscard]] std::unique_ptr<verify::EngineTask> make_task(
      const verify::Query& query,
      const verify::VerifyContext& context) const override;
};

}  // namespace fannet::mc
