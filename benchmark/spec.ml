(* BENCHMARK.json: the metric names, units, directions and bounds every
   run prints and every comparison judges by. *)

type metric = { name : string; unit_ : string; better : string; bound : float }

type t = { run_seconds : float; end_to_end : metric list; per_layer : metric list }

let load root =
  let j =
    Serve.Json.of_string
      (In_channel.with_open_text (Filename.concat root "BENCHMARK.json")
         In_channel.input_all)
  in
  let metrics field =
    List.map
      (fun m ->
        {
          name = Option.get (Serve.Json.get_string "name" m);
          unit_ = Option.get (Serve.Json.get_string "unit" m);
          better = Option.get (Serve.Json.get_string "better" m);
          bound = Option.value ~default:0.0 (Serve.Json.get_float "bound" m);
        })
      (Serve.Json.get_list field j)
  in
  {
    run_seconds = Option.get (Serve.Json.get_float "run_seconds" j);
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }
