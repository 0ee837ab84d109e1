(* perfbench: one seeded, verdict-checked benchmark over the library's
   layers. Usually started through perfbench/run.py, which builds this
   executable and efgame_cli first:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 \
       --work DIR --cli PATH/efgame_cli.exe

   The last line of standard output is the JSON result; the lines
   before it (prefixed "# ") restate every metric with its unit, the
   environment block, and how each figure was taken. The exit code is 0
   only when every output matched its known answer. *)

let workloads =
  [
    ("word_games", Wl_words.run);
    ("spanner_corpus", Wl_spanner.run);
    ("frontier_fleet", Wl_fleet.run);
  ]

let inputs_digest workload seed =
  let pairs () =
    Gen.word_pairs ~seed ~random:Wl_words.random ~power:Wl_words.power ~deep:Wl_words.deep
    |> List.map (fun p -> Printf.sprintf "%s %s %d" p.Gen.left p.Gen.right p.Gen.k)
  in
  let docs () = Gen.corpus ~seed |> List.map (fun d -> d.Gen.text) in
  let lines =
    match workload with
    | "word_games" -> pairs ()
    | "spanner_corpus" -> docs ()
    | _ -> [ Printf.sprintf "n=%d k=%d" Wl_frontier.n Wl_frontier.k ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let work = ref ".bench_work" and cli = ref "" and corrupt = ref false in
  let dump = ref false and label = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--cli", Arg.Set_string cli, "PATH efgame_cli executable (shard_fleet)");
      ("--label", Arg.Set_string label, "L save the report under reports/L/");
      ("--corrupt-pinned", Arg.Set corrupt, " perturb the pinned answers (self-test)");
      ("--dump-inputs", Arg.Set dump, " print a digest of the generated inputs and exit");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline
        ("perfbench: --workload must be one of "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  | Some _ when !dump -> print_endline (inputs_digest !workload !seed)
  | Some _
    when !label <> ""
         && (!label.[0] = '.'
            || not
                 (String.for_all
                    (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true | _ -> false)
                    !label)) ->
      prerr_endline "perfbench: --label takes letters, digits, _, - and ., and no leading .";
      exit 2
  | Some run ->
      (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Pinned.corrupt := !corrupt;
      let cfg =
        {
          Harness.workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace = 1;
          work = !work;
          cli = !cli;
          label = !label;
        }
      in
      let r = run cfg in
      (* drop repeated lines, keeping the first of each *)
      let notes =
        List.fold_left (fun acc l -> if List.mem l acc then acc else l :: acc) [] r.Harness.notes
      in
      let r = { r with Harness.notes = List.rev notes } in
      Harness.print_result cfg r;
      exit (if r.Harness.failed = 0 then 0 else 1)
