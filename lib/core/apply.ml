(* Alias of [Hippo_engine.Apply]. It stays because perfsuite/ compiles
   against [Hippo_core.Apply], [Hippo_core.Fix] and [Hippo_core.Verify]. *)
include Hippo_engine.Apply
