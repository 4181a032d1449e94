(* The sknn-lint golden corpus: every rule must provably fire on its
   bad_*.ml fixture, the three allow granularities must silence the
   same shapes in allowed_ok.ml, and the rendered report must be
   byte-stable across runs (the lint output is part of CI). *)

let fixture_dir = "lint_fixtures"

let run_fixtures () = Lint_driver.run_path fixture_dir

let base_file (d : Lint_rules.diagnostic) = Filename.basename d.Lint_rules.file

let rule_hits outcome rule file =
  List.length
    (List.filter
       (fun d -> d.Lint_rules.rule = rule && base_file d = file)
       outcome.Lint_driver.diagnostics)

(* (rule, fixture, expected diagnostic count) — the corpus is golden:
   a rule that stops firing, or fires extra, fails here. *)
let expected =
  [ (Lint_config.No_division, "bad_division.ml", 5);
    (Lint_config.Secret_taint, "bad_taint.ml", 3);
    (Lint_config.Orchestrator_only_obs, "bad_obs_in_pool.ml", 2);
    (Lint_config.No_ambient_nondeterminism, "bad_nondeterminism.ml", 5);
    (Lint_config.No_ambient_nondeterminism, "bad_wallclock.ml", 3);
    (Lint_config.Into_aliasing, "bad_into_aliasing.ml", 5);
    (Lint_config.Ledger_at_op_site, "bad_ledger.ml", 5);
    (Lint_config.Secret_flow, "bad_flow_cross_fn.ml", 1);
    (Lint_config.Secret_flow, "bad_flow_field.ml", 1);
    (* A partial application binds only the parameters it supplies. *)
    (Lint_config.Secret_flow, "bad_flow_partial.ml", 1);
    (Lint_config.Secret_flow, "ok_flow_partial.ml", 0);
    (Lint_config.Constant_time, "bad_ct_branch.ml", 2);
    (Lint_config.Constant_time, "bad_ct_index.ml", 2);
    (Lint_config.Unused_allow, "bad_stale_allow.ml", 1) ]

let test_every_rule_fires () =
  let outcome = run_fixtures () in
  Alcotest.(check (list string)) "no parse errors" [] outcome.Lint_driver.errors;
  List.iter
    (fun (rule, file, count) ->
      Alcotest.(check int)
        (Printf.sprintf "%s diagnostics in %s" (Lint_config.rule_name rule) file)
        count
        (rule_hits outcome rule file))
    expected

let test_cross_contamination () =
  (* Each fixture trips exactly its own rule: catching bad_division's
     operators under secret-taint (or vice versa) would mean the rules
     are not independent. *)
  let outcome = run_fixtures () in
  List.iter
    (fun d ->
      match
        List.find_opt (fun (_, file, _) -> base_file d = file) expected
      with
      | Some (rule, file, _) ->
        Alcotest.(check string)
          (Printf.sprintf "rule firing in %s" file)
          (Lint_config.rule_name rule)
          (Lint_config.rule_name d.Lint_rules.rule)
      | None -> ())
    outcome.Lint_driver.diagnostics

let test_allow_granularities () =
  let outcome = run_fixtures () in
  let in_allowed =
    List.filter (fun d -> base_file d = "allowed_ok.ml") outcome.Lint_driver.diagnostics
  in
  Alcotest.(check int)
    "allowed_ok.ml diagnostics (floating/binding/expression allows + allow-label)"
    0 (List.length in_allowed)

let test_flow_reports_full_path () =
  (* The acceptance bar for the interprocedural engine: a finding names
     the whole source→sink chain, not just the sink. *)
  let outcome = run_fixtures () in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let msg_of file rule =
    match
      List.find_opt
        (fun (d : Lint_rules.diagnostic) ->
          base_file d = file && d.Lint_rules.rule = rule)
        outcome.Lint_driver.diagnostics
    with
    | Some d -> d.Lint_rules.message
    | None -> Alcotest.failf "no %s diagnostic in %s" (Lint_config.rule_name rule) file
  in
  let cross = msg_of "bad_flow_cross_fn.ml" Lint_config.Secret_flow in
  List.iter
    (fun hop -> Alcotest.(check bool) ("cross-fn trace has " ^ hop) true (contains cross hop))
    [ "secret root \"sk\""; "Bad_flow_cross_fn.reveal"; "Bad_flow_cross_fn.emit";
      "sink Printf.printf" ];
  let field = msg_of "bad_flow_field.ml" Lint_config.Secret_flow in
  List.iter
    (fun hop -> Alcotest.(check bool) ("field trace has " ^ hop) true (contains field hop))
    [ "secret root \"sk\""; "field payload"; "Bad_flow_field.pack";
      "Bad_flow_field.out"; "sink Transcript.send" ]

let render outcome = Format.asprintf "%a" Lint_driver.pp_outcome outcome

let test_output_byte_stable () =
  let a = render (run_fixtures ()) in
  let b = render (run_fixtures ()) in
  Alcotest.(check string) "two runs render identically" a b;
  (* Diagnostics arrive sorted by file, line, column: CI diffs of the
     lint report must be positional, never ordering noise. *)
  let outcome = run_fixtures () in
  let keys =
    List.map
      (fun (d : Lint_rules.diagnostic) ->
        (d.Lint_rules.file, d.Lint_rules.line, d.Lint_rules.col))
      (List.sort Lint_rules.compare_diagnostic outcome.Lint_driver.diagnostics)
  in
  Alcotest.(check bool) "sorted keys are weakly increasing" true
    (List.for_all2
       (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length keys - 1) keys)
       (List.tl keys))

let test_sarif_valid_and_stable () =
  (* SARIF is the CI upload format: it must be well-formed JSON and
     byte-identical across repeated runs and across --jobs levels. *)
  let sarif_at jobs = Lint_driver.sarif (Lint_driver.run_paths ~jobs [ fixture_dir ]) in
  let s1 = sarif_at 1 in
  Alcotest.(check bool) "sarif parses as JSON" true (Result.is_ok (Util.Json.of_string s1));
  Alcotest.(check bool) "sarif mentions a ruleId" true
    (let needle = "\"ruleId\":\"secret-flow\"" in
     let lh = String.length s1 and ln = String.length needle in
     let rec go i = i + ln <= lh && (String.sub s1 i ln = needle || go (i + 1)) in
     go 0);
  Alcotest.(check string) "identical across runs" s1 (sarif_at 1);
  Alcotest.(check string) "identical under --jobs 2" s1 (sarif_at 2);
  Alcotest.(check string) "identical under --jobs 4" s1 (sarif_at 4);
  let report_at jobs =
    Format.asprintf "%a" Lint_driver.pp_outcome
      (Lint_driver.run_paths ~jobs [ fixture_dir ])
  in
  Alcotest.(check string) "text report identical under --jobs" (report_at 1) (report_at 3)

let test_clean_file_is_ok () =
  let outcome =
    Lint_driver.run_file ~config:Lint_config.base "lint_fixtures/allowed_ok.ml"
  in
  Alcotest.(check bool) "ok outcome" true (Lint_driver.ok outcome)

let test_parse_error_reported () =
  let path = Filename.temp_file ~temp_dir:"." "sknn_lint_broken" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "let = ;; mismatched (";
      close_out oc;
      let outcome = Lint_driver.run_file ~config:Lint_config.base path in
      Alcotest.(check int) "counted as a file" 1 outcome.Lint_driver.files;
      Alcotest.(check bool) "reported as error" true
        (outcome.Lint_driver.errors <> []);
      Alcotest.(check bool) "not ok" false (Lint_driver.ok outcome))

let test_config_rule_names_roundtrip () =
  List.iter
    (fun r ->
      match Lint_config.rule_of_name (Lint_config.rule_name r) with
      | Some r' ->
        Alcotest.(check string) "roundtrip" (Lint_config.rule_name r)
          (Lint_config.rule_name r')
      | None -> Alcotest.failf "rule %s does not roundtrip" (Lint_config.rule_name r))
    Lint_config.all_rules

let test_config_rejects_typos () =
  let raises lines =
    match Lint_config.of_lines lines with
    | (_ : Lint_config.t) -> false
    | exception Lint_config.Bad_config _ -> true
  in
  Alcotest.(check bool) "unknown rule" true (raises [ "enable not-a-rule" ]);
  Alcotest.(check bool) "unknown directive" true (raises [ "frobnicate" ]);
  Alcotest.(check bool) "missing argument" true (raises [ "allow-label" ]);
  (* Hard errors carry the offending line number and the set of valid
     rule names, so a conf typo is diagnosable from the CI log alone. *)
  (match Lint_config.of_lines [ "# preamble"; "enable not-a-rule" ] with
   | (_ : Lint_config.t) -> Alcotest.fail "typo accepted"
   | exception Lint_config.Bad_config msg ->
     let contains needle =
       let lh = String.length msg and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub msg i ln = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "message carries line number" true (contains "line 2");
     Alcotest.(check bool) "message lists valid rules" true (contains "secret-flow");
     Alcotest.(check bool) "message lists valid rules (ct)" true
       (contains "constant-time"));
  (* Comments and blanks are inert; knobs land in the profile. *)
  let c =
    Lint_config.of_lines
      [ "# comment"; ""; "enable no-division"; "taint-root beta"; "allow-label n" ]
  in
  Alcotest.(check bool) "enable applied" true
    (Lint_config.is_enabled c Lint_config.No_division);
  Alcotest.(check bool) "taint root added" true
    (List.mem "beta" c.Lint_config.taint_roots);
  Alcotest.(check bool) "label allowed" true
    (List.mem "n" c.Lint_config.allowed_labels)

let test_disable_silences_rule () =
  let config =
    Lint_config.of_lines
      [ "enable no-division"; "disable no-division"; "disable into-aliasing";
        "disable orchestrator-only-obs"; "disable no-ambient-nondeterminism" ]
  in
  let outcome = Lint_driver.run_file ~config "lint_fixtures/bad_division.ml" in
  Alcotest.(check int) "disabled rule reports nothing" 0
    (List.length outcome.Lint_driver.diagnostics)

let () =
  Alcotest.run "lint"
    [ ( "corpus",
        [ Alcotest.test_case "every rule fires on its fixture" `Quick
            test_every_rule_fires;
          Alcotest.test_case "rules fire only on their own fixture" `Quick
            test_cross_contamination;
          Alcotest.test_case "allow granularities silence everything" `Quick
            test_allow_granularities;
          Alcotest.test_case "flow findings carry the full path" `Quick
            test_flow_reports_full_path
        ] );
      ( "driver",
        [ Alcotest.test_case "report is byte-stable" `Quick test_output_byte_stable;
          Alcotest.test_case "sarif is valid JSON and jobs-stable" `Quick
            test_sarif_valid_and_stable;
          Alcotest.test_case "clean file is ok" `Quick test_clean_file_is_ok;
          Alcotest.test_case "parse errors are reported" `Quick
            test_parse_error_reported
        ] );
      ( "config",
        [ Alcotest.test_case "rule names roundtrip" `Quick
            test_config_rule_names_roundtrip;
          Alcotest.test_case "typos are rejected" `Quick test_config_rejects_typos;
          Alcotest.test_case "disable silences a rule" `Quick
            test_disable_silences_rule
        ] )
    ]
