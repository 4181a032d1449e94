(* Phase 2, flow domain: propagate secret sources through the
   per-function summaries to a fixpoint and report every
   interprocedural path from a secret to an `All`-mode sink that is not
   routed through a declared declassifier or the §5 allow-label
   surface.

   The engine is a demand-driven whole-program evaluation:

   - a *binding* (f, p) records every call site that can reach
     parameter [p] of function [f], together with the argument's
     origins in the caller — collected in one pass over the call
     graph, no secrecy judgement involved;
   - a value is secret when its origins evaluate to a configured root:
     parameters chase their bindings up the caller chain, call results
     inline the callee's return origins under an argument
     substitution, and deferred field projections ([Field]) normalise
     the inner origin to the record literals it can evaluate to and
     project there — so a record's public field never inherits the
     taint of its sibling key field;
   - a sink fires when its collected argument origins resolve secret,
     unless phase 1 already reported the site (direct mention), the
     resolved ~label chain lands entirely on allow-listed literals, or
     an [@sknn.allow "secret-flow"] covers it.

   Cycles are pruned (least fixpoint: a loop contributes no taint of
   its own), recursion is depth-capped, and top-level parameter
   queries are memoised per domain.

   Determinism: functions are iterated in (file, position) order, all
   worklists are lists in collection order, and no hashing order is
   ever observed — reports are byte-identical across runs and --jobs. *)

module T = Taint_summary
module Cg = Call_graph

(* Resolution context: the function whose origins we are evaluating,
   plus a substitution mapping its parameters to the (context, origins)
   captured at the call being resolved. *)
type ctx = { fn : T.func; subst : (string * (ctx * T.origin list)) list }

type bind = { b_caller : T.func; b_pos : T.pos; b_origins : T.origin list }

type domain = {
  d_cg : Cg.t;
  d_roots : string list;      (* global secret root names *)
  d_declass : string -> bool; (* cut Ret results at these *)
  d_binds : (string * string, bind list) Hashtbl.t;
      (* (fn, param) -> call sites that bind it, in call-graph order *)
  d_memo : (string * string, string list option) Hashtbl.t;
      (* top-level "can (fn, param) carry secret?" answers *)
}

let depth_cap = 16

(* Field projections get their own budget: a projection reached deep
   in a secrecy evaluation must still be able to walk back to the
   record literal, or it degrades to whole-record taint.  Termination
   is guaranteed by the cycle guards, the cap only bounds work. *)
let shape_cap = 8

let empty_ctx fn = { fn; subst = [] }

(* One pass over every call site: which arguments reach which
   parameters.  Purely structural — secrecy is decided on demand. *)
let bindings cg =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun f ->
      List.iter
        (fun (call : T.call) ->
          let callees = Cg.resolve cg ~caller_file:f.T.f_file call.T.c_callee in
          List.iter
            (fun g ->
              let matched =
                Cg.match_args g.T.f_params
                  (List.map
                     (fun (a : T.call_arg) -> (a, a.T.ca_label))
                     call.T.c_args)
              in
              List.iter
                (fun (p, (arg : T.call_arg)) ->
                  let key = (g.T.f_name, p.T.p_name) in
                  let prev =
                    Option.value ~default:[] (Hashtbl.find_opt tbl key)
                  in
                  Hashtbl.replace tbl key
                    (prev
                    @ [ { b_caller = f;
                          b_pos = call.T.c_pos;
                          b_origins = arg.T.ca_origins } ]))
                matched)
            callees)
        f.T.f_calls)
    cg.Cg.funcs;
  tbl

(* The substitution a call to [g] with [args] (evaluated in [ctx])
   puts on [g]'s parameters.  A parameter the call does not supply (a
   partial application) is bound to no origin: it is not any other call
   site's argument, and the higher-order call that applies the closure
   already carries the values it feeds in its own argument union. *)
let call_subst ctx (g : T.func) args =
  let matched = Cg.match_args g.T.f_params (List.map (fun (l, os) -> ((ctx, os), l)) args) in
  List.map
    (fun (p : T.param) ->
      ( p.T.p_name,
        match List.find_opt (fun ((q : T.param), _) -> q == p) matched with
        | Some (_, v) -> v
        | None -> (ctx, []) ))
    g.T.f_params

(* Is this origin set secret?  Returns a source-first witness trace.
   [vf] guards recursive call resolution (function names), [vp] guards
   binding chains ((function, parameter) keys): both prune cycles,
   which under a least fixpoint contribute no taint of their own. *)
let rec secret_at dom (ctx : ctx) depth vf vp origins =
  List.find_map (secret_one dom ctx depth vf vp) origins

and secret_one dom ctx depth vf vp o =
  match o with
  | T.Root r ->
    if List.mem r dom.d_roots then Some [ Printf.sprintf "secret root %S" r ]
    else None
  | T.Param p -> (
    match List.assoc_opt p ctx.subst with
    | Some (cctx, os) -> secret_at dom cctx depth vf vp os
    | None -> via_binds dom ctx depth vf vp p)
  | T.Rec fields ->
    List.find_map
      (fun (f, os) ->
        Option.map
          (fun t -> t @ [ Printf.sprintf "field %s" f ])
          (secret_at dom ctx depth vf vp os))
      fields
  | T.Field (f, inner) -> (
    match shapes dom ctx shape_cap vf vp inner with
    | [] ->
      (* No record literal reachable (opaque callee, non-record
         value): conservatively treat the projection as the whole
         value. *)
      Option.map
        (fun t -> t @ [ Printf.sprintf "via field %s" f ])
        (secret_one dom ctx depth vf vp inner)
    | ss ->
      List.find_map
        (fun (c, hops, fields) ->
          match List.assoc_opt f fields with
          | None -> None
          | Some os ->
            Option.map
              (fun t -> t @ (Printf.sprintf "field %s" f :: hops))
              (secret_at dom c depth vf vp os))
        ss)
  | T.Ret (path, args) ->
    if dom.d_declass path then None
    else begin
      let union_of_args () =
        List.find_map
          (fun (_, os) ->
            Option.map
              (fun t -> t @ [ Printf.sprintf "via %s" path ])
              (secret_at dom ctx depth vf vp os))
          args
      in
      match Cg.resolve dom.d_cg ~caller_file:ctx.fn.T.f_file path with
      | [] -> union_of_args ()
      | gs ->
        if depth = 0 then None
        else
          List.find_map
            (fun g ->
              if List.mem g.T.f_name vf then None
              else
                let subst = call_subst ctx g args in
                Option.map
                  (fun t -> t @ [ Printf.sprintf "via result of %s" g.T.f_name ])
                  (secret_at dom { fn = g; subst } (depth - 1)
                     (g.T.f_name :: vf) vp g.T.f_returns))
            gs
    end

(* Chase a parameter up the caller chain through its bindings. *)
and via_binds dom ctx depth vf vp p =
  let key = (ctx.fn.T.f_name, p) in
  if List.mem key vp then None
  else
    match Hashtbl.find_opt dom.d_memo key with
    | Some cached -> cached
    | None ->
      if depth = 0 then None
      else begin
        let r =
          List.find_map
            (fun b ->
              Option.map
                (fun t ->
                  t
                  @ [ Printf.sprintf "param %s of %s (call at %s:%d)" p
                        ctx.fn.T.f_name b.b_pos.T.file b.b_pos.T.line ])
                (secret_at dom (empty_ctx b.b_caller) (depth - 1) vf
                   (key :: vp) b.b_origins))
            (Option.value ~default:[] (Hashtbl.find_opt dom.d_binds key))
        in
        (* A positive answer is unconditional; a miss is cacheable only
           when nothing was pruned away under it (full depth, no
           guards), else it may just reflect the cap. *)
        if r <> None || (vf = [] && vp = [] && depth = depth_cap) then
          Hashtbl.replace dom.d_memo key r;
        r
      end

(* Normalise an origin to the record literals it can evaluate to, as
   (context, trace hops, fields) triples — the heart of cross-call
   field sensitivity.  Empty means "no record shape reachable". *)
and shapes dom ctx depth vf vp o :
    (ctx * string list * (string * T.origin list) list) list =
  if depth = 0 then []
  else
    match o with
    | T.Rec fields -> [ (ctx, [], fields) ]
    | T.Root _ -> []
    | T.Param p -> (
      match List.assoc_opt p ctx.subst with
      | Some (cctx, os) -> List.concat_map (shapes dom cctx (depth - 1) vf vp) os
      | None ->
        let key = (ctx.fn.T.f_name, p) in
        if List.mem key vp then []
        else
          List.concat_map
            (fun b ->
              let hop =
                Printf.sprintf "param %s of %s (call at %s:%d)" p
                  ctx.fn.T.f_name b.b_pos.T.file b.b_pos.T.line
              in
              List.map
                (fun (c, hops, fields) -> (c, hops @ [ hop ], fields))
                (List.concat_map
                   (shapes dom (empty_ctx b.b_caller) (depth - 1) vf
                      (key :: vp))
                   b.b_origins))
            (Option.value ~default:[] (Hashtbl.find_opt dom.d_binds key)))
    | T.Field (f, inner) ->
      List.concat_map
        (fun (c, hops, fields) ->
          match List.assoc_opt f fields with
          | None -> []
          | Some os ->
            List.map
              (fun (c2, h2, fl2) ->
                (c2, h2 @ (Printf.sprintf "field %s" f :: hops), fl2))
              (List.concat_map (shapes dom c (depth - 1) vf vp) os))
        (shapes dom ctx (depth - 1) vf vp inner)
    | T.Ret (path, args) ->
      if dom.d_declass path then []
      else (
        match Cg.resolve dom.d_cg ~caller_file:ctx.fn.T.f_file path with
        | [] -> []
        | gs ->
          List.concat_map
            (fun g ->
              if List.mem g.T.f_name vf then []
              else
                let subst = call_subst ctx g args in
                let hop = Printf.sprintf "via result of %s" g.T.f_name in
                List.map
                  (fun (c, hops, fields) -> (c, hops @ [ hop ], fields))
                  (List.concat_map
                     (shapes dom { fn = g; subst } (depth - 1)
                        (g.T.f_name :: vf) vp)
                     g.T.f_returns))
            gs)

let secret dom ctx origins = secret_at dom ctx depth_cap [] [] origins

let flow_domain (facts : T.file_facts list) cg =
  let roots =
    List.sort_uniq compare
      (List.concat_map (fun ff -> ff.T.ff_config.Lint_config.taint_roots) facts)
  in
  { d_cg = cg;
    d_roots = roots;
    d_declass = (fun _ -> false);
    d_binds = bindings cg;
    d_memo = Hashtbl.create 64 }

(* ~label chains: a sink whose label is a parameter is exempt only when
   every caller chain resolves it to an allow-listed literal (checked
   against the allowlist of the directory where the literal appears —
   that is where the surface is declared). *)
let label_exempt cg ~fn ~param =
  let rec chains fn param visited =
    if List.mem (fn.T.f_name, param) visited then `Exempt
    else begin
      let visited = (fn.T.f_name, param) :: visited in
      let found = ref false in
      let all_exempt = ref true in
      List.iter
        (fun h ->
          List.iter
            (fun call ->
              let callees = Cg.resolve cg ~caller_file:h.T.f_file call.T.c_callee in
              if List.exists (fun g -> g.T.f_name = fn.T.f_name) callees then
                let matched =
                  Cg.match_args fn.T.f_params
                    (List.map (fun a -> (a, a.T.ca_label)) call.T.c_args)
                in
                List.iter
                  (fun (p, (arg : T.call_arg)) ->
                    if p.T.p_name = param then begin
                      found := true;
                      match (arg.T.ca_literal, arg.T.ca_passthrough) with
                      | Some l, _ ->
                        let cfg = cg.Cg.config_of_file h.T.f_file in
                        if not (List.mem l cfg.Lint_config.allowed_labels) then
                          all_exempt := false
                      | None, Some q -> (
                        match chains h q visited with
                        | `Exempt -> ()
                        | `Not -> all_exempt := false)
                      | None, None -> all_exempt := false
                    end)
                  matched)
            h.T.f_calls)
        cg.Cg.funcs;
      if !found && !all_exempt then `Exempt else `Not
    end
  in
  chains fn param []

let run (facts : T.file_facts list) (cg : Cg.t) :
    (Lint_config.rule * T.pos * string) list =
  let dom = flow_domain facts cg in
  let out = ref [] in
  List.iter
    (fun f ->
      let cfg = cg.Cg.config_of_file f.T.f_file in
      if Lint_config.is_enabled cfg Lint_config.Secret_flow then
        List.iter
          (fun (s : T.sink) ->
            if not s.T.sk_local then
              match secret dom (empty_ctx f) s.T.sk_origins with
              | None -> ()
              | Some trace ->
                let exempt =
                  match s.T.sk_label with
                  | T.Label_literal l -> List.mem l cfg.Lint_config.allowed_labels
                  | T.Label_param p -> label_exempt cg ~fn:f ~param:p = `Exempt
                  | T.Label_opaque | T.Label_none -> false
                in
                if not exempt then begin
                  match
                    List.find_opt
                      (fun a -> a.T.al_rule = "secret-flow")
                      s.T.sk_allows
                  with
                  | Some site -> site.T.al_used <- true
                  | None ->
                    out :=
                      ( Lint_config.Secret_flow,
                        s.T.sk_pos,
                        Printf.sprintf
                          "interprocedural flow: %s -> sink %s in %s — route \
                           it through a Leakage.* declassifier or allow-label \
                           the admitted §5 observable"
                          (String.concat " -> " trace)
                          s.T.sk_callee f.T.f_name )
                      :: !out
                end)
          f.T.f_sinks)
    cg.Cg.funcs;
  List.rev !out
