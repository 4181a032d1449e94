(* Phase 1 of the lint engine: the syntactic invariant rules as one
   pass over a parsed implementation, which now also collects the
   per-function taint summaries consumed by the interprocedural phase
   (see {!Taint_summary}, {!Flow_rules}, {!Ct_rules}).

   Everything here is deliberately *syntactic*: the linter runs at
   `dune build @lint` time on source files, without type information,
   so each rule over-approximates and the [@sknn.allow "<rule>"]
   attribute (on an expression, a value binding or floating at module
   level) is the reviewed escape hatch for sites the over-approximation
   catches legitimately.

   Rule <-> invariant map (see DESIGN.md "Static analysis"):
   - no-division            ROADMAP "Kernel invariants (PR 3)"
   - secret-taint           §5 leakage surface / ROADMAP PR 2 audit set
   - orchestrator-only-obs  ROADMAP PR 2/PR 4 orchestrator-only spans
   - no-ambient-nondeterminism  bit-identical across --jobs (PR 1)
   - into-aliasing          PR 3 "destructive targets uniquely owned"
   - ledger-at-op-site      PR 7 op-level cost ledger: every qualified
                            Bgv/Plaintext ciphertext op in a protocol
                            directory threads a ~counters ledger
   - secret-flow            §5 whole-protocol leakage claim (phase 2)
   - constant-time          Party B secret-key TCB discipline (phase 2)
   - unused-allow           escape hatches must not outlive their code *)

open Ppxlib
module T = Taint_summary

type diagnostic = {
  rule : Lint_config.rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_diagnostic a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = compare (Lint_config.rule_name a.rule) (Lint_config.rule_name b.rule) in
        if c <> 0 then c else compare a.message b.message

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col
    (Lint_config.rule_name d.rule) d.message

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)
(* ------------------------------------------------------------------ *)

let flatten_lident l = String.concat "." (Longident.flatten_exn l)

let last_lident l =
  match Longident.flatten_exn l with
  | [] -> ""
  | parts -> List.nth parts (List.length parts - 1)

let head_lident l = match Longident.flatten_exn l with [] -> "" | h :: _ -> h

let pos_of_loc file (loc : location) =
  { T.file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol }

(* [@sknn.allow "rule"] / [@sknn.allow "rule: rationale"] sites attached
   to an attribute list, as shared mutable records so the phase-2 rules
   and the unused-allow sweep see suppressions recorded here. *)
let allow_sites_of_attributes ~file attrs =
  List.filter_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "sknn.allow" then None
      else
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _ }
            ] ->
          let rule, rationale = T.parse_allow_payload s in
          Some
            { T.al_rule = rule;
              al_rationale = rationale;
              al_pos = pos_of_loc file a.attr_loc;
              al_used = false }
        | _ -> None)
    attrs

(* Normalised one-line rendering, used for syntactic equality of
   aliasing checks and for quoting expressions in messages. *)
let expr_to_string e =
  (* asprintf rather than string_of_expression: the latter goes through
     the shared str_formatter in some compiler lineages, and this runs
     from worker domains under --jobs. *)
  let s = Format.asprintf "%a" Pprintast.expression e in
  String.concat " "
    (List.filter (fun w -> w <> "") (String.split_on_char ' '
       (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))

(* ------------------------------------------------------------------ *)
(* Pattern tables                                                      *)
(* ------------------------------------------------------------------ *)

let division_idents =
  [ "/"; "mod"; "/."; "Stdlib./"; "Stdlib.mod"; "Stdlib./."; "Int64.div";
    "Int64.rem"; "Int64.unsigned_div"; "Int64.unsigned_rem"; "Float.div";
    "Float.rem"; "Int32.div"; "Int32.rem"; "Nativeint.div"; "Nativeint.rem" ]

let wall_clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
    "Sys.time" ]

(* The sanctioned wrapper's reads, banned only under [check-wall-clock]:
   directories whose timestamps must be pure functions of recorded data
   (the virtual network clock) may not fall back to the wall. *)
let timer_idents =
  [ "Timer.now"; "Timer.time"; "Timer.counter"; "Util.Timer.now";
    "Util.Timer.time"; "Util.Timer.counter" ]

let poly_compare_idents =
  [ "compare"; "Stdlib.compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* Variable-time integer ops for the constant-time rule: data-dependent
   latency on every mainstream core (division/remainder), plus
   polymorphic structural comparison (walks the value). *)
let ct_vartime_idents =
  division_idents @ poly_compare_idents
  @ [ "Z.div"; "Z.rem"; "Z.ediv"; "Z.erem"; "Z.divexact" ]

let indexed_get_heads = [ "Array"; "String"; "Bytes"; "Bigarray" ]

(* ledger-at-op-site: the Bgv entry points that record into the op-level
   cost ledger when given [?counters] — every qualified call in a
   protocol directory must thread one, or the analytic Cost_model
   cross-check silently under-counts.  Key generation is excluded: it is
   one-time setup outside the per-query ledger. *)
let bgv_ledger_ops =
  [ "encrypt"; "decrypt"; "decrypt_coeff0"; "add"; "sub"; "add_plain";
    "add_const"; "embed"; "add_embedded"; "mul"; "mul_plain"; "mul_plain_sums"; "mul_scalar";
    "fold_monomials";
    "mul_sum"; "sum_sq_diff"; "modswitch";
    "rescale_to_floor"; "relinearize"; "truncate_to_level"; "eval_poly";
    "apply_galois"; "sum_slots" ]

let plaintext_ledger_ops = [ "of_slots"; "to_slots" ]

let pool_call_names = [ "map"; "mapi"; "map_local"; "init" ]

let is_pool_call lid =
  List.mem (last_lident lid) pool_call_names
  &&
  match Longident.flatten_exn lid with
  | [ "Pool"; _ ] | [ "Util"; "Pool"; _ ] -> true
  | _ -> false

let is_arena_fn name lid =
  match Longident.flatten_exn lid with
  | [ "Arena"; f ] | [ "Util"; "Arena"; f ] -> f = name
  | _ -> false

(* Sinks for the secret-taint / secret-flow rules.  [`All] checks every
   argument, [`Labelled l] only the given labelled arguments; a
   string-literal [~label] in the configured allowlist exempts the whole
   call (the admitted §5 surface).  Phase 2 only follows [`All] sinks:
   span ~args are orchestrator-side strings already covered locally. *)
let sink_of_application config lid =
  let last = last_lident lid in
  let head = head_lident lid in
  let obs_head = List.mem head config.Lint_config.obs_modules in
  if (obs_head && (last = "audit" || last = "observe" || last = "warn"))
     || flatten_lident lid = "Audit.observe"
  then Some `All
  else if last = "send" && (head = "Transcript" || head = "Netsim") then Some `All
  else if last = "send_tracked" || last = "record_send" then Some `All
  else if obs_head && last = "with_span" then Some (`Labelled [ "args" ])
  else if
    (head = "Printf" || head = "Format")
    (* sprintf-style builders only *construct* strings; if the result
       reaches an output sink, taint propagation through the binding
       catches it there. *)
    && not (List.mem last [ "sprintf"; "asprintf"; "ksprintf"; "kasprintf" ])
  then Some `All
  else if head = "Metrics" && (last = "set" || last = "observe") then Some `All
  else None

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

(* Context of the top-level function currently being summarised. *)
type fctx = {
  fx_name : string;
  fx_pos : T.pos;
  fx_params : T.param list;
  fx_env : (string, T.origin list) Hashtbl.t;
  fx_in_ct : bool;
  mutable fx_sinks : T.sink list;
  mutable fx_calls : T.call list;
  mutable fx_cts : T.ct_event list;
}

let run ~(config : Lint_config.t) ~file str =
  let diags = ref [] in
  let enabled r = Lint_config.is_enabled config r in
  (* Scoped [@sknn.allow] context, restored around each subtree;
     [file_allows] holds floating [@@@sknn.allow] sites (rest of file);
     [all_allows] accumulates every site for the unused-allow sweep. *)
  let allows = ref [] in
  let file_allows = ref [] in
  let all_allows = ref [] in
  let scope_allows () = !allows @ !file_allows in
  let register sites =
    all_allows := !all_allows @ sites;
    sites
  in
  let allowed rule =
    match
      List.find_opt
        (fun a -> a.T.al_rule = Lint_config.rule_name rule)
        (scope_allows ())
    with
    | Some site ->
      site.T.al_used <- true;
      true
    | None -> false
  in
  let report rule loc fmt =
    Format.kasprintf
      (fun message ->
        if enabled rule && not (allowed rule) then
          diags :=
            { rule;
              file;
              line = loc.loc_start.pos_lnum;
              col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
              message }
            :: !diags)
      fmt
  in
  (* secret-taint state: names bound (directly or via record fields) to
     secret material.  Monotone per function — snapshotting around each
     function body keeps one function's bindings from spilling into its
     siblings, which is what made the old whole-file table need
     allowlist entries for unrelated code. *)
  let tainted = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace tainted r ()) config.Lint_config.taint_roots;
  let is_declassifier lid =
    let s = flatten_lident lid in
    List.exists
      (fun prefix ->
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix)
      config.Lint_config.declassifiers
  in
  (* First tainted identifier/field mentioned in [e], skipping
     declassifier applications. *)
  let taint_mention e =
    let found = ref None in
    let scan =
      object (self)
        inherit Ast_traverse.iter as super

        method! expression e =
          if !found <> None then ()
          else
            match e.pexp_desc with
            | Pexp_ident { txt; _ } when Hashtbl.mem tainted (last_lident txt) ->
              found := Some (flatten_lident txt)
            | Pexp_field (inner, { txt; _ })
              when Hashtbl.mem tainted (last_lident txt) ->
              found := Some ("." ^ last_lident txt);
              self#expression inner
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
              when is_declassifier txt ->
              () (* declassified: the §5 extraction surface *)
            | _ -> super#expression e
      end
    in
    scan#expression e;
    !found
  in
  let pattern_names p =
    let names = ref [] in
    let scan =
      object
        inherit Ast_traverse.iter as super

        method! pattern p =
          (match p.ppat_desc with
           | Ppat_var { txt; _ } -> names := txt :: !names
           | _ -> ());
          super#pattern p
      end
    in
    scan#pattern p;
    !names
  in
  let is_function e = match e.pexp_desc with Pexp_function _ -> true | _ -> false in
  let propagate_taint vb =
    if enabled Lint_config.Secret_taint && not (is_function vb.pvb_expr) then
      match taint_mention vb.pvb_expr with
      | Some _ -> List.iter (fun n -> Hashtbl.replace tainted n ()) (pattern_names vb.pvb_pat)
      | None -> ()
  in
  (* A [~label] argument that is a string literal, or a sprintf whose
     format string is a literal: the format string stands for the label
     in the allowlist ("iteration %d: masked distance rows"), since the
     varying hole is a public message index. *)
  let string_of_label_expr e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt; _ }; _ },
          (Nolabel, { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ })
          :: _ )
      when List.mem (flatten_lident txt)
             [ "Printf.sprintf"; "Format.sprintf"; "Format.asprintf"; "sprintf" ]
      ->
      Some s
    | _ -> None
  in
  let literal_label args =
    List.find_map
      (function Labelled "label", e -> string_of_label_expr e | _ -> None)
      args
  in
  (* ---------------------------------------------------------------- *)
  (* Phase-1 fact collection                                           *)
  (* ---------------------------------------------------------------- *)
  let file_module =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  in
  (* Submodule nesting (outer-first) and `module X = Path` aliases. *)
  let module_path = ref [ file_module ] in
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let expand_path s =
    match String.split_on_char '.' s with
    | head :: tl when Hashtbl.mem aliases head ->
      String.concat "." (Hashtbl.find aliases head @ tl)
    | _ -> s
  in
  let funcs = ref [] in
  let cur : fctx option ref = ref None in
  let file_env : (string, T.origin list) Hashtbl.t = Hashtbl.create 16 in
  (* Root names are shared between the flow and CT domains at collection
     time; phase 2 interprets them against the relevant root set. *)
  let root_names =
    List.sort_uniq compare
      (config.Lint_config.taint_roots @ config.Lint_config.ct_roots)
  in
  let root n = if List.mem n root_names then [ T.Root n ] else [] in
  let union_origins ls =
    let out = ref [] in
    List.iter
      (List.iter (fun o -> if not (List.mem o !out) then out := o :: !out))
      ls;
    List.rev !out
  in
  let env_add env n os =
    if os <> [] then
      Hashtbl.replace env n
        (union_origins [ (try Hashtbl.find env n with Not_found -> []); os ])
  in
  let lookup n =
    let from tbl = try Hashtbl.find tbl n with Not_found -> [] in
    let local = match !cur with Some c -> from c.fx_env | None -> [] in
    union_origins [ local; from file_env; root n ]
  in
  let project f os =
    union_origins
      (List.map
         (function
           | T.Rec fields -> ( try List.assoc f fields with Not_found -> [])
           (* Shape not known yet (parameter, call result, nested
              projection): defer to phase 2, which can see through the
              call graph to the record literal. *)
           | (T.Param _ | T.Ret _ | T.Field _) as o -> [ T.Field (f, o) ]
           | o -> [ o ])
         os)
  in
  let rec origins_of e : T.origin list =
    match e.pexp_desc with
    | Pexp_constant _ -> []
    | Pexp_ident { txt = Lident x; _ } -> lookup x
    | Pexp_ident { txt; _ } -> root (last_lident txt)
    | Pexp_field (e0, { txt; _ }) ->
      let f = last_lident txt in
      union_origins [ root f; project f (origins_of e0) ]
    | Pexp_record (fields, base) ->
      let fs =
        List.map (fun ({ txt; _ }, v) -> (last_lident txt, origins_of v)) fields
      in
      union_origins
        [ [ T.Rec fs ]; (match base with Some b -> origins_of b | None -> []) ]
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let path = expand_path (flatten_lident txt) in
      if is_declassifier txt || T.declassified ~prefixes:config.Lint_config.declassifiers path
      then []
      else if path = ":=" then []
      else
        [ T.Ret
            ( path,
              List.map
                (fun (lbl, a) ->
                  let l =
                    match lbl with
                    | Labelled l | Optional l -> Some l
                    | Nolabel -> None
                  in
                  (l, origins_of a))
                args ) ]
    | Pexp_apply (f, args) ->
      union_origins (origins_of f :: List.map (fun (_, a) -> origins_of a) args)
    | Pexp_function (_, _, Pfunction_body b) -> origins_of b
    | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
      union_origins (List.map (fun c -> origins_of c.pc_rhs) cases)
    | Pexp_let (_, vbs, b) ->
      (* Make inner bindings visible before evaluating the body: the
         same monotone over-approximation the taint table uses. *)
      List.iter
        (fun vb ->
          let os = origins_of vb.pvb_expr in
          let env =
            match !cur with Some c -> c.fx_env | None -> file_env
          in
          List.iter (fun n -> env_add env n os) (pattern_names vb.pvb_pat))
        vbs;
      origins_of b
    | Pexp_sequence (_, b) -> origins_of b
    | Pexp_ifthenelse (_, t, f) ->
      union_origins
        [ origins_of t; (match f with Some f -> origins_of f | None -> []) ]
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      union_origins (List.map (fun c -> origins_of c.pc_rhs) cases)
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> origins_of e
    | Pexp_construct (_, None) | Pexp_variant (_, None) -> []
    | Pexp_tuple es | Pexp_array es -> union_origins (List.map origins_of es)
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_lazy e
    | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e)
    | Pexp_letexception (_, e)
    | Pexp_newtype (_, e) -> origins_of e
    | Pexp_send (e, _) -> origins_of e
    | _ -> []
  in
  let rec tail_origins e =
    match e.pexp_desc with
    | Pexp_let (_, _, b)
    | Pexp_sequence (_, b)
    | Pexp_letmodule (_, _, b)
    | Pexp_letexception (_, b)
    | Pexp_open (_, b)
    | Pexp_constraint (b, _) -> tail_origins b
    | Pexp_ifthenelse (_, t, f) ->
      union_origins
        [ tail_origins t; (match f with Some f -> tail_origins f | None -> []) ]
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      union_origins (List.map (fun c -> tail_origins c.pc_rhs) cases)
    | _ -> origins_of e
  in
  (* Collapse `let f x = fun y -> ...` currying into one parameter list
     and return the innermost body. *)
  let rec collect_params acc e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> collect_params acc e
    | Pexp_function (params, _, body) ->
      let ps =
        List.filter_map
          (fun p ->
            match p.pparam_desc with
            | Pparam_val (lbl, _, pat) ->
              let label =
                match lbl with
                | Labelled l | Optional l -> Some l
                | Nolabel -> None
              in
              let rec name p =
                match p.ppat_desc with
                | Ppat_var { txt; _ } -> Some txt
                | Ppat_constraint (p, _) | Ppat_alias (p, _) -> name p
                | _ -> None
              in
              Some (label, name pat, pattern_names pat)
            | Pparam_newtype _ -> None)
          params
      in
      (match body with
       | Pfunction_body b -> collect_params (acc @ ps) b
       | Pfunction_cases _ ->
         (acc @ ps @ [ (None, Some "__scrutinee", []) ], None))
    | _ -> (acc, Some e)
  in
  let function_binding vb =
    let rec binder p =
      match p.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | Ppat_constraint (p, _) -> binder p
      | _ -> None
    in
    match binder vb.pvb_pat with
    | Some name when is_function vb.pvb_expr -> Some name
    | _ -> None
  in
  let passthrough_of c e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident x; _ }
      when List.exists (fun p -> p.T.p_name = x) c.fx_params ->
      Some x
    | _ -> None
  in
  let mk_call_arg c (lbl, a) =
    { T.ca_label =
        (match lbl with Labelled l | Optional l -> Some l | Nolabel -> None);
      ca_origins = origins_of a;
      ca_literal = string_of_label_expr a;
      ca_passthrough = passthrough_of c a }
  in
  let record_ct c kind loc os =
    if os <> [] then
      c.fx_cts <-
        { T.ct_kind = kind;
          ct_pos = pos_of_loc file loc;
          ct_origins = os;
          ct_allows = scope_allows () }
        :: c.fx_cts
  in
  (* orchestrator-only-obs: > 0 while inside a function argument of a
     pool call, i.e. syntactically inside a chunk closure. *)
  let pool_depth = ref 0 in
  let with_snapshot f =
    let snap = Hashtbl.copy tainted in
    f ();
    Hashtbl.reset tainted;
    Hashtbl.iter (fun k v -> Hashtbl.replace tainted k v) snap
  in
  let walker =
    object (self)
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        let saved = !allows in
        allows := register (allow_sites_of_attributes ~file vb.pvb_attributes) @ saved;
        (match (function_binding vb, !cur) with
         | Some name, None ->
           (* Top-level (or submodule-level) function: open a summary
              context, walk the body under it, then finalise. *)
           let params, body = collect_params [] vb.pvb_expr in
           let qname = String.concat "." (!module_path @ [ name ]) in
           let fx =
             { fx_name = qname;
               fx_pos = pos_of_loc file vb.pvb_loc;
               fx_params =
                 List.map
                   (fun (label, n, _) ->
                     { T.p_name = (match n with Some n -> n | None -> "_");
                       p_label = label })
                   params;
               fx_env = Hashtbl.create 16;
               fx_in_ct = T.in_ct_scope config qname;
               fx_sinks = [];
               fx_calls = [];
               fx_cts = [] }
           in
           List.iteri
             (fun i (_, n, all_names) ->
               let pname =
                 match n with Some n -> n | None -> Printf.sprintf "arg%d" i
               in
               env_add fx.fx_env pname [ T.Param pname ];
               List.iter
                 (fun bound -> env_add fx.fx_env bound [ T.Param pname ])
                 all_names)
             params;
           cur := Some fx;
           with_snapshot (fun () ->
             propagate_taint vb;
             super#value_binding vb);
           let returns =
             match body with Some b -> tail_origins b | None -> []
           in
           funcs :=
             { T.f_name = fx.fx_name;
               f_file = file;
               f_pos = fx.fx_pos;
               f_params = fx.fx_params;
               f_returns = returns;
               f_sinks = List.rev fx.fx_sinks;
               f_calls = List.rev fx.fx_calls;
               f_ct_events = List.rev fx.fx_cts;
               f_in_ct_scope = fx.fx_in_ct }
             :: !funcs;
           cur := None
         | Some name, Some c ->
           (* Local closure: its captures are the closure's origins. *)
           let _, body = collect_params [] vb.pvb_expr in
           (match body with
            | Some b -> env_add c.fx_env name (origins_of b)
            | None -> ());
           with_snapshot (fun () ->
             propagate_taint vb;
             super#value_binding vb)
         | None, _ ->
           propagate_taint vb;
           let env = match !cur with Some c -> c.fx_env | None -> file_env in
           let os = origins_of vb.pvb_expr in
           List.iter (fun n -> env_add env n os) (pattern_names vb.pvb_pat);
           super#value_binding vb);
        allows := saved

      method! module_binding mb =
        match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_ident { txt; _ } ->
          Hashtbl.replace aliases name (Longident.flatten_exn txt);
          super#module_binding mb
        | Some name, Pmod_structure _ ->
          module_path := !module_path @ [ name ];
          super#module_binding mb;
          module_path :=
            List.filteri (fun i _ -> i < List.length !module_path - 1) !module_path
        | _ -> super#module_binding mb

      method! expression e =
        let saved = !allows in
        allows := register (allow_sites_of_attributes ~file e.pexp_attributes) @ saved;
        (match e.pexp_desc with
         | Pexp_ident { txt; loc } ->
           let name = flatten_lident txt in
           if List.mem name division_idents then
             report Lint_config.No_division loc
               "division operator %s in a ring-kernel directory (kernels are \
                division-free; whitelist precompute/fallback sites with \
                [@sknn.allow \"no-division\"])"
               name;
           if head_lident txt = "Random" then
             report Lint_config.No_ambient_nondeterminism loc
               "stdlib Random (%s) breaks bit-identical results across --jobs; \
                use Util.Rng streams"
               name;
           if List.mem name wall_clock_idents then
             report Lint_config.No_ambient_nondeterminism loc
               "wall-clock read %s outside Util.Timer/lib/obs" name;
           if config.Lint_config.check_wall_clock && List.mem name timer_idents
           then
             report Lint_config.No_ambient_nondeterminism loc
               "Timer read %s in a virtual-clock directory; every timestamp \
                here must be a pure function of the transcript and profile"
               name;
           if config.Lint_config.check_poly_compare
              && List.mem name poly_compare_idents
           then
             report Lint_config.No_ambient_nondeterminism loc
               "polymorphic %s in a ciphertext-bearing directory; use a \
                monomorphic comparison (Int.compare, Int64.compare, ...)"
               name;
           if !pool_depth > 0
              && List.mem (head_lident txt) config.Lint_config.obs_modules
           then
             report Lint_config.Orchestrator_only_obs loc
               "observability call %s inside a Pool chunk closure — spans, \
                flight events and metrics are orchestrator-only (replayed \
                post-join via with_chunk_observer)"
               name
         | _ -> ());
        (match e.pexp_desc with
         | Pexp_apply (({ pexp_desc = Pexp_ident { txt = fn; loc = fn_loc }; _ } as f), args) ->
           (* into-aliasing: Rq destructive variants with dst = src. *)
           (if String.length (last_lident fn) > 5
               && Filename.check_suffix (last_lident fn) "_into"
               && (head_lident fn = "Rq" || head_lident fn = "Ring")
            then
              match List.filter_map (function Nolabel, a -> Some a | _ -> None) args with
              | dst :: srcs when srcs <> [] ->
                let dst_s = expr_to_string dst in
                List.iter
                  (fun src ->
                    if expr_to_string src = dst_s then
                      report Lint_config.Into_aliasing fn_loc
                        "%s called with syntactically identical destination and \
                         source (%s): destructive targets must be uniquely owned"
                        (flatten_lident fn) dst_s)
                  srcs
              | _ -> ());
           (* ledger-at-op-site: ciphertext ops without a counters
              ledger.  Unqualified internal calls (inside Bgv itself)
              have no module head and are not checked. *)
           (let last = last_lident fn and head = head_lident fn in
            let is_ledger_op =
              (head = "Bgv" && List.mem last bgv_ledger_ops)
              || (head = "Plaintext" && List.mem last plaintext_ledger_ops)
            in
            let threads_counters =
              List.exists
                (function
                  | (Labelled "counters" | Optional "counters"), _ -> true
                  | _ -> false)
                args
            in
            if is_ledger_op && not threads_counters then
              report Lint_config.Ledger_at_op_site fn_loc
                "%s without a ~counters argument: every ciphertext op must \
                 land in the op-level cost ledger or the Cost_model \
                 cross-check under-counts (thread the party's counters, or \
                 whitelist setup-time sites with [@sknn.allow \
                 \"ledger-at-op-site\"])"
                (flatten_lident fn));
           (* Reference-cell writes feed the flow environment so that
              accumulator-style secrets stay tracked. *)
           (match (flatten_lident fn, args) with
            | ":=", [ (Nolabel, { pexp_desc = Pexp_ident { txt = Lident x; _ }; _ });
                      (Nolabel, rhs) ] ->
              let env = match !cur with Some c -> c.fx_env | None -> file_env in
              env_add env x (origins_of rhs)
            | _ -> ());
           (* secret-taint sinks (phase 1) + sink summaries (phase 2). *)
           (match sink_of_application config fn with
            | None -> ()
            | Some mode ->
              let exempt =
                match literal_label args with
                | Some l -> List.mem l config.Lint_config.allowed_labels
                | None -> false
              in
              let local_hit = ref false in
              if not exempt then begin
                let checked =
                  match mode with
                  | `All -> List.map snd args
                  | `Labelled names ->
                    List.filter_map
                      (function
                        | Labelled l, a when List.mem l names -> Some a
                        | _ -> None)
                      args
                in
                List.iter
                  (fun a ->
                    match taint_mention a with
                    | Some who ->
                      if enabled Lint_config.Secret_taint then local_hit := true;
                      report Lint_config.Secret_taint fn_loc
                        "secret-carrying identifier %s flows into sink %s outside \
                         the §5-allowlisted surface (allow-label the admitted \
                         observable or declassify via Leakage)"
                        who (flatten_lident fn)
                    | None -> ())
                  checked
              end;
              (match (mode, !cur) with
               | `All, Some c ->
                 let label_form =
                   match
                     List.find_opt (function Labelled "label", _ -> true | _ -> false) args
                   with
                   | Some (_, le) -> (
                     match string_of_label_expr le with
                     | Some l -> T.Label_literal l
                     | None -> (
                       match passthrough_of c le with
                       | Some p -> T.Label_param p
                       | None -> T.Label_opaque))
                   | None ->
                     if List.exists (fun p -> p.T.p_name = "label") c.fx_params
                     then T.Label_param "label"
                     else T.Label_none
                 in
                 c.fx_sinks <-
                   { T.sk_callee = flatten_lident fn;
                     sk_pos = pos_of_loc file fn_loc;
                     sk_label = label_form;
                     sk_origins =
                       union_origins (List.map (fun (_, a) -> origins_of a) args);
                     sk_allows = scope_allows ();
                     sk_local = !local_hit || exempt }
                   :: c.fx_sinks
               | _ -> ()));
           (* Call-graph edges for phase 2. *)
           (match !cur with
            | Some c when flatten_lident fn <> ":=" ->
              c.fx_calls <-
                { T.c_callee = expand_path (flatten_lident fn);
                  c_pos = pos_of_loc file fn_loc;
                  c_args = List.map (mk_call_arg c) args }
                :: c.fx_calls
            | _ -> ());
           (* constant-time: secret-indexed loads and variable-time ops
              inside ct-scope functions. *)
           (match !cur with
            | Some c when c.fx_in_ct && enabled Lint_config.Constant_time ->
              let last = last_lident fn and head = head_lident fn in
              if List.mem head indexed_get_heads
                 && List.mem last [ "get"; "unsafe_get" ]
              then (
                match List.filter_map (function Nolabel, a -> Some a | _ -> None) args with
                | _ :: idx :: _ -> record_ct c T.Ct_index fn_loc (origins_of idx)
                | _ -> ());
              if List.mem (flatten_lident fn) ct_vartime_idents then
                record_ct c (T.Ct_vartime (flatten_lident fn)) fn_loc
                  (union_origins (List.map (fun (_, a) -> origins_of a) args))
            | _ -> ());
           (* orchestrator-only-obs: descend into pool chunk closures
              with the flag raised; other arguments descend normally. *)
           if is_pool_call fn then begin
             self#expression f;
             List.iter
               (fun (_, a) ->
                 if is_function a then begin
                   incr pool_depth;
                   self#expression a;
                   decr pool_depth
                 end
                 else self#expression a)
               args
           end
           else super#expression e
         | Pexp_let (_, vbs, _) ->
           List.iter propagate_taint vbs;
           super#expression e
         | Pexp_ifthenelse (c0, _, _) ->
           (match !cur with
            | Some c when c.fx_in_ct && enabled Lint_config.Constant_time ->
              record_ct c (T.Ct_branch "if") e.pexp_loc (origins_of c0)
            | _ -> ());
           super#expression e
         | Pexp_match (scrut, _) ->
           (match !cur with
            | Some c when c.fx_in_ct && enabled Lint_config.Constant_time ->
              record_ct c (T.Ct_branch "match") e.pexp_loc (origins_of scrut)
            | _ -> ());
           super#expression e
         | Pexp_while (c0, _) ->
           (match !cur with
            | Some c when c.fx_in_ct && enabled Lint_config.Constant_time ->
              record_ct c (T.Ct_branch "while") e.pexp_loc (origins_of c0)
            | _ -> ());
           super#expression e
         | _ -> super#expression e);
        allows := saved

      method! structure_item si =
        match si.pstr_desc with
        | Pstr_attribute a ->
          (* [@@@sknn.allow "rule"]: applies to the rest of the file. *)
          file_allows := register (allow_sites_of_attributes ~file [ a ]) @ !file_allows;
          super#structure_item si
        | Pstr_value (_, vbs) ->
          (* into-aliasing, arena half: an Arena.acquire whose top-level
             binding never releases is a handle escaping its scope. *)
          if enabled Lint_config.Into_aliasing then begin
            let acquires = ref [] and releases = ref 0 in
            let scan =
              object
                inherit Ast_traverse.iter as super

                method! expression e =
                  (match e.pexp_desc with
                   | Pexp_ident { txt; loc } ->
                     if is_arena_fn "acquire" txt then acquires := loc :: !acquires;
                     if is_arena_fn "release" txt then incr releases
                   | _ -> ());
                  super#expression e
              end
            in
            List.iter (fun vb -> scan#expression vb.pvb_expr) vbs;
            if !releases = 0 then
              List.iter
                (fun loc ->
                  report Lint_config.Into_aliasing loc
                    "Arena.acquire without a matching Arena.release in the same \
                     top-level binding — scratch handles must not escape their \
                     scope (prefer Arena.with_array)")
                (List.rev !acquires)
          end;
          super#structure_item si
        | _ -> super#structure_item si
    end
  in
  walker#structure str;
  ( List.sort compare_diagnostic !diags,
    { T.ff_file = file;
      ff_config = config;
      ff_funcs = List.rev !funcs;
      ff_allows = !all_allows } )

let run_structure ~config ~file str = fst (run ~config ~file str)
