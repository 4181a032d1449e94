(* Standalone kernel microbenchmark CLI: prints a table and optionally
   writes a JSON report (same record shape as the "kernels" block of
   the protocol bench JSON). *)

let run quick json =
  let results = Kernel_bench.run ~quick () in
  Format.printf "%a" Kernel_bench.pp_results results;
  (match json with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Util.Json.(
       output_line oc
         (Obj
            [ ("generator", Str "sknn-kernel-bench");
              ("results", List (List.map Kernel_bench.result_json results)) ]));
     close_out oc;
     Format.printf "wrote %d results to %s@." (List.length results) path);
  0

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorter measurement windows (CI smoke).")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Write results as JSON to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "kernels" ~doc:"Microbenchmark the NTT/ring kernels")
    Term.(const run $ quick $ json)

let () = exit (Cmd.eval' cmd)
