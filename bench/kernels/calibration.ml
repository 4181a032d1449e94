(* Per-op unit-cost calibration for the cost ledger.

   The ledger (Util.Counters) attributes every ciphertext operation to
   an (op kind, BGV level) cell; this pass measures how many seconds one
   operation of each kind costs at each level of a parameter set's
   modulus chain, producing the unit-cost table the analytic replica
   (Sknn_obs.Cost_model.predict_seconds) prices ledgers with:

     predicted_time = sum over cells of count * unit_cost.

   Measurements grow their repetition count the way Kernel_bench does
   (not shared: Kernel_bench is the library's main module, so it cannot
   be a dependency of this one), then take the median of five windows.
   The NTT census rows (ntt_fwd/ntt_inv) hold one whole-polynomial pass
   at each level, and every composite op's cell is net of its own
   census: its measured time minus the passes one counted call of it
   records, priced from those rows.  So each pass is priced once, by
   the census, and a rescale chain that drops j primes with one pair of
   passes per component is priced as such, not as j single switches. *)

module C = Util.Counters
module Json = Util.Json

(* [costs.(C.op_index op).(level)] = seconds per op; row 0 of the
   level axis holds the level-free slot ops. *)
type t = float array array

(* Five windows of [target]/5 seconds each, and the median of their
   per-call means, so one slow window (a preemption on a shared host)
   does not set the cell.  Drift between runs minutes apart is not
   removed this way.  The repetition count grows until one window fills
   its share, and that window is the first sample; two untimed calls
   warm the code and working set first. *)
let windows = 5

let seconds ~target f =
  f ();
  f ();
  let window = target /. float_of_int windows in
  let timed reps =
    let t0 = Util.Timer.now () in
    for _ = 1 to reps do
      f ()
    done;
    Util.Timer.now () -. t0
  in
  let rec grow reps =
    let elapsed = timed reps in
    if elapsed >= window || reps >= 100_000_000 then (reps, elapsed) else grow (reps * 4)
  in
  let reps, first = grow 1 in
  let per_call = Array.make windows (first /. float_of_int reps) in
  for w = 1 to windows - 1 do
    per_call.(w) <- timed reps /. float_of_int reps
  done;
  Array.sort Float.compare per_call;
  per_call.(windows / 2)

(* Measurement budget per op, split into [windows].  Quick mode keeps a
   full-chain calibration under a couple of seconds for CI; the default
   gives ~1% stable cells on a quiet machine. *)
let target ~quick = if quick then 0.01 else 0.1

let measure ?(quick = false) ?rng (params : Params.t) : t =
  let rng = match rng with Some r -> r | None -> Util.Rng.create 1907L in
  let target = target ~quick in
  let sec f = seconds ~target f in
  let chain = Params.chain_length params in
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 chain + 1) 0.0 in
  let set op level s = costs.(C.op_index op).(level) <- s in
  (* The census rows first: one whole-polynomial pass each way. *)
  let ring = params.Params.ring in
  for lvl = 1 to chain do
    let eval = Sampler.uniform rng ring ~nprimes:lvl in
    let coeff = Rq.to_coeff eval in
    set C.Op_ntt_fwd lvl (sec (fun () -> ignore (Rq.to_eval coeff)));
    set C.Op_ntt_inv lvl (sec (fun () -> ignore (Rq.to_coeff eval)))
  done;
  (* A composite op's cell: its time net of the passes one counted call
     records.  A measurement the census outweighs (timing noise on an
     op that is nearly all transform) floors at a nanosecond, so the
     cell still reads as measured. *)
  let set_net op level f =
    let c = C.create () in
    f (Some c);
    let census =
      List.fold_left
        (fun acc (op', l, count) ->
          match op' with
          | C.Op_ntt_fwd | C.Op_ntt_inv ->
            acc +. (float_of_int count *. costs.(C.op_index op').(l))
          | _ -> acc)
        0.0 (C.ledger_entries c)
    in
    set op level (Float.max 1e-9 (sec (fun () -> f None) -. census))
  in
  let keys = Bgv.keygen rng params in
  let pt = Plaintext.constant params 123L in
  let fresh = Bgv.encrypt rng keys.Bgv.pk pt in
  (* Fresh encryption lands at the full chain level, but the protocol
     also encrypts directly at lower levels (Party B's Return-kNN
     indicators at return_level), so every level gets its own cell. *)
  for lvl = 1 to chain do
    set_net C.Op_encrypt lvl (fun counters ->
        ignore (Bgv.encrypt ?counters ~level:lvl rng keys.Bgv.pk pt))
  done;
  (* Slot packing/unpacking is plaintext-side and level-free (row 0).
     to_slots caches its answer per plaintext, so the unpack measurement
     rebuilds an uncached (coefficient-born) plaintext each rep and
     subtracts the rebuild cost. *)
  let slots =
    Array.init (Params.slot_count params) (fun i -> Int64.of_int ((i mod 251) + 1))
  in
  set C.Op_slot_pack 0 (sec (fun () -> ignore (Plaintext.of_slots params slots)));
  let coeffs = Array.init params.Params.n (fun i -> Int64.of_int (i mod 5)) in
  let rebuild = sec (fun () -> ignore (Plaintext.of_coeffs params coeffs)) in
  let both =
    sec (fun () -> ignore (Plaintext.to_slots (Plaintext.of_coeffs params coeffs)))
  in
  set C.Op_slot_unpack 0 (Float.max 0.0 (both -. rebuild));
  (* Per-level ciphertexts come from repeated modulus switching, like
     the live pipeline, so their noise shrinks with the modulus.  The
     decrypt measurement is additionally guarded: levels whose modulus
     cannot hold the plaintext at all (the live path never decrypts
     there, so their ledger cells are always zero) stay at zero cost. *)
  let ladder = Array.make (chain + 1) fresh in
  for lvl = chain - 1 downto 1 do
    ladder.(lvl) <- Bgv.modswitch ladder.(lvl + 1)
  done;
  for lvl = 1 to chain do
    let ct = ladder.(lvl) in
    (try
       set_net C.Op_decrypt lvl (fun counters -> ignore (Bgv.decrypt ?counters keys.Bgv.sk ct))
     with Bgv.Decryption_failure _ -> ());
    set_net C.Op_ct_add lvl (fun counters -> ignore (Bgv.add ?counters ct ct));
    set_net C.Op_mul_plain lvl (fun counters -> ignore (Bgv.mul_plain ?counters ct pt));
    set_net C.Op_ct_mul lvl (fun counters -> ignore (Bgv.mul ?counters ~rescale:false ct ct));
    let deg2 = Bgv.mul ~rescale:false ct ct in
    set_net C.Op_key_switch lvl (fun counters ->
        ignore (Bgv.relinearize ?counters keys.Bgv.rlk deg2));
    if lvl >= 2 then
      set_net C.Op_modswitch lvl (fun counters -> ignore (Bgv.modswitch ?counters ct));
    (* A level drop records at its target level; dropping to the current
       level is a no-op the live path never records. *)
    if lvl < chain then
      set C.Op_level_drop lvl (sec (fun () -> ignore (Bgv.truncate_to_level fresh lvl)))
  done;
  costs

let pp ppf (costs : t) =
  let levels = Array.length costs.(0) - 1 in
  Format.fprintf ppf "%-12s" "op \\ level";
  for lvl = 0 to levels do
    Format.fprintf ppf " %9s" (if lvl = 0 then "slots" else Printf.sprintf "L%d" lvl)
  done;
  Format.fprintf ppf "@.";
  Array.iter
    (fun op ->
      let row = costs.(C.op_index op) in
      if Array.exists (fun s -> s > 0.0) row then begin
        Format.fprintf ppf "%-12s" (C.op_name op);
        Array.iter
          (fun s ->
            if s > 0.0 then Format.fprintf ppf " %8.2fus" (s *. 1e6)
            else Format.fprintf ppf " %9s" "-")
          row;
        Format.fprintf ppf "@."
      end)
    C.all_ops

(* ------------------------------------------------------------------ *)
(* Cache: measured tables persisted across invocations                 *)
(* ------------------------------------------------------------------ *)

(* A full calibration takes tens of seconds; `sknn cost`, `sknn plan`
   and `bench --json` all want the same table.  The cache file holds one
   JSON line per (params, quick) key, versioned and stamped with the git
   revision and machine fields.  A key match with a stale stamp is still
   usable — unit costs drift with the code and the host, not with the
   inputs — so mismatches produce warnings, not misses. *)

(* Version 3: a rescale chain's inverse census cell sits at its drop
   count (only the dropped primes leave the evaluation domain), so a
   modswitch cell is priced net of an inverse pass over one prime, and
   each cell is the median of five windows.  Version 2 priced it net of
   a pass over the whole source level, and version 1 priced composites
   gross, so both are misses, not stale hits. *)
let cache_version = 3

(* The environment the table was measured in.  kernel_bench has no unix
   dependency, so the revision comes from the git CLI via a temp file;
   "unknown" outside a work tree. *)
let git_rev () =
  let tmp = Filename.temp_file "sknn-rev" ".txt" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  let rc =
    try
      Sys.command
        (Printf.sprintf "git rev-parse --short HEAD > %s 2>/dev/null"
           (Filename.quote tmp))
    with Sys_error _ -> 1
  in
  let rev =
    if rc <> 0 then "unknown"
    else begin
      let ic = open_in tmp in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      close_in ic;
      if line = "" then "unknown" else line
    end
  in
  cleanup ();
  rev

(* The first "model name" line of /proc/cpuinfo, or "unknown" where
   there is none (other kernels, or architectures that do not print
   one). *)
let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          if v = "" then "unknown" else v
        | _ -> scan ())
    in
    let model = scan () in
    close_in ic;
    model

let machine () =
  Printf.sprintf "%s/%d-bit/%d-domains/%s" Sys.os_type Sys.word_size
    (Domain.recommended_domain_count ())
    (cpu_model ())

let str name v = match Json.member name v with Some (Json.Str s) -> Some s | _ -> None
let num name v = Option.bind (Json.member name v) Json.number

(* The cache key: the table is only reusable for the shape it was
   measured at, and quick-pass tables are noisier than full ones, so the
   pass kind is part of the key. *)
let cache_key (params : Params.t) ~quick =
  (params.Params.name, params.Params.n, Params.chain_length params, quick)

let entry_key line =
  match (str "params" line, num "n" line, num "chain" line, Json.member "quick" line) with
  | Some name, Some n, Some chain, Some (Json.Bool quick) ->
    Some (name, int_of_float n, int_of_float chain, quick)
  | _ -> None

let read_cache_lines file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line when String.trim line = "" -> go acc
      | line -> go (line :: acc)
    in
    let lines = go [] in
    close_in ic;
    lines
  end

let costs_of_entry (params : Params.t) line =
  let chain = Params.chain_length params in
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 chain + 1) 0.0 in
  let op_of_name name =
    Array.fold_left
      (fun acc op -> if String.equal (C.op_name op) name then Some op else acc)
      None C.all_ops
  in
  match Json.member "ops" line with
  | Some (Json.List ops) ->
    let ok = ref true in
    List.iter
      (fun cell ->
        match (str "op" cell, num "level" cell, num "s" cell) with
        | Some name, Some level, Some s ->
          (match op_of_name name with
           | Some op ->
             let level = int_of_float level in
             if level >= 0 && level <= chain then
               costs.(C.op_index op).(level) <- s
           | None -> ok := false)
        | _ -> ok := false)
      ops;
    if !ok then Some costs else None
  | _ -> None

(* Look the key up; [Ok] carries staleness warnings (git revision or
   machine drift) the caller should surface. *)
let load_cached ~file ?(quick = false) (params : Params.t) :
    (t * string list) option =
  let key = cache_key params ~quick in
  let find line =
    match Json.of_string line with
    | Error _ -> None
    | Ok v ->
      if str "rec" v <> Some "calibration-cache" then None
      else if num "version" v <> Some (float_of_int cache_version) then None
      else if entry_key v <> Some key then None
      else Some v
  in
  match List.filter_map find (read_cache_lines file) with
  | [] -> None
  | line :: _ ->
    (match costs_of_entry params line with
     | None -> None
     | Some costs ->
       let warn field now =
         match str field line with
         | Some v when not (String.equal v now) ->
           [ Printf.sprintf
               "calibration cache %s: %s was %S, now %S — consider re-measuring \
                (delete the entry or the file)"
               file field v now ]
         | _ -> []
       in
       Some (costs, warn "git_rev" (git_rev ()) @ warn "machine" (machine ())))

(* One {"op","level","s"} cell per measured (op, level); the zero cells
   (unmeasured levels) stay out. *)
let op_cells (costs : t) =
  Json.List
    (List.concat_map
       (fun op ->
         Array.to_list costs.(C.op_index op)
         |> List.mapi (fun level s -> (level, s))
         |> List.filter_map (fun (level, s) ->
                if s > 0.0 then
                  Some
                    (Json.Obj
                       [ ("op", Json.Str (C.op_name op));
                         ("level", Json.Int level);
                         ("s", Json.Float s) ])
                else None))
       (Array.to_list C.all_ops))

let entry_json (params : Params.t) ~quick (costs : t) =
  Json.to_string
    (Json.Obj
       [ ("rec", Json.Str "calibration-cache");
         ("version", Json.Int cache_version);
         ("git_rev", Json.Str (git_rev ()));
         ("machine", Json.Str (machine ()));
         ("params", Json.Str params.Params.name);
         ("n", Json.Int params.Params.n);
         ("chain", Json.Int (Params.chain_length params));
         ("quick", Json.Bool quick);
         ("ops", op_cells costs) ])

(* Replace the entry for this key, keep every other line verbatim. *)
let store_cached ~file ?(quick = false) (params : Params.t) (costs : t) =
  let key = Some (cache_key params ~quick) in
  let others =
    List.filter
      (fun line ->
        match Json.of_string line with
        | Error _ -> true
        | Ok v -> entry_key v <> key)
      (read_cache_lines file)
  in
  let oc = open_out file in
  List.iter (fun line -> output_string oc (line ^ "\n")) others;
  output_string oc (entry_json params ~quick costs ^ "\n");
  close_out oc

(* The one entry point the verbs share: cache hit (with any staleness
   warnings), or measure and fill the cache. *)
let measure_cached ?(quick = false) ?rng ?file (params : Params.t) :
    t * string list =
  match file with
  | None -> (measure ~quick ?rng params, [])
  | Some file ->
    (match load_cached ~file ~quick params with
     | Some (costs, warnings) -> (costs, warnings)
     | None ->
       let costs = measure ~quick ?rng params in
       store_cached ~file ~quick params costs;
       (costs, []))

(* The unit-cost table as one JSON record:
   {"rec":"calibration","ops":[{"op":...,"level":...,"s":...}]} *)
let to_json (costs : t) =
  Json.Obj [ ("rec", Json.Str "calibration"); ("ops", op_cells costs) ]
