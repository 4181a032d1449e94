(* Minimal SARIF 2.1.0 emitter so lint findings render as GitHub
   code-scanning annotations.

   Output is deterministic: findings arrive pre-sorted from the driver
   and the emitter adds nothing environment-dependent (no timestamps,
   no absolute paths). *)

let rule_descriptions =
  [ (Lint_config.No_division, "Ring kernels are division-free");
    (Lint_config.Secret_taint, "Secrets reach sinks only via the §5 surface");
    (Lint_config.Orchestrator_only_obs, "Observability is orchestrator-only");
    (Lint_config.No_ambient_nondeterminism, "Results are bit-identical across --jobs");
    (Lint_config.Into_aliasing, "Destructive targets are uniquely owned");
    (Lint_config.Ledger_at_op_site, "Every ciphertext op lands in the cost ledger");
    (Lint_config.Secret_flow, "No interprocedural secret-to-sink path escapes Leakage.*");
    (Lint_config.Constant_time, "Party B's secret-key TCB is branch- and index-oblivious");
    (Lint_config.Unused_allow, "Escape hatches suppress at least one diagnostic") ]

let render (diags : Lint_rules.diagnostic list) =
  let open Util.Json in
  let text s = Obj [ ("text", Str s) ] in
  let rule (r, desc) =
    Obj [ ("id", Str (Lint_config.rule_name r)); ("shortDescription", text desc) ]
  in
  let result (d : Lint_rules.diagnostic) =
    let region = Obj [ ("startLine", Int d.line); ("startColumn", Int (d.col + 1)) ] in
    Obj
      [ ("ruleId", Str (Lint_config.rule_name d.rule));
        ("level", Str "error");
        ("message", text d.message);
        ( "locations",
          List
            [ Obj
                [ ( "physicalLocation",
                    Obj [ ("artifactLocation", Obj [ ("uri", Str d.file) ]); ("region", region) ]
                  ) ] ] ) ]
  in
  let driver =
    Obj
      [ ("name", Str "sknn-lint");
        ("informationUri", Str "https://example.invalid/sknn-lint");
        ("rules", List (List.map rule rule_descriptions)) ]
  in
  to_string
    (Obj
       [ ("version", Str "2.1.0");
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ( "runs",
           List
             [ Obj
                 [ ("tool", Obj [ ("driver", driver) ]);
                   ("results", List (List.map result diags)) ] ] ) ])
