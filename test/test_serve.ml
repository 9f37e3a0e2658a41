(* Tests for the solving daemon: the JSON codec, the wire protocol
   (request parsing, content-addressed request keys), and an in-process
   daemon exercised over a real Unix socket — served bytes must equal
   what the CLI handlers produce, repeats must hit the memory tier, a
   restart over the same store root must hit the disk tier, and
   malformed requests must be refused under the sender's id. *)

let json = Alcotest.testable (fun ppf j ->
    Format.pp_print_string ppf (Serve.Json.to_string j))
    ( = )

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let check s v =
    Alcotest.check json (Printf.sprintf "parse %s" s) v (Serve.Json.of_string s)
  in
  check "null" Putil.Obs.Null;
  check "true" (Putil.Obs.Bool true);
  check "-42" (Putil.Obs.Int (-42));
  check "1.5" (Putil.Obs.Float 1.5);
  check "1e3" (Putil.Obs.Float 1000.0);
  check "\"a b\"" (Putil.Obs.String "a b");
  check "[1, 2, 3]" (Putil.Obs.List [ Putil.Obs.Int 1; Putil.Obs.Int 2; Putil.Obs.Int 3 ]);
  check "{\"k\": [true, null]}"
    (Putil.Obs.Assoc [ ("k", Putil.Obs.List [ Putil.Obs.Bool true; Putil.Obs.Null ]) ]);
  check "\"\\u0041\\n\\t\\\"\\\\\"" (Putil.Obs.String "A\n\t\"\\")

let test_json_emit_parse_identity () =
  (* every value the daemon emits parses back to itself, including
     strings carrying the full byte range (the emitter escapes bytes
     >= 0x80 as \u00XX; the parser folds those back to single bytes) *)
  let hostile = String.init 256 Char.chr in
  let v =
    Putil.Obs.Assoc
      [
        ("id", Putil.Obs.Int 3);
        ("output", Putil.Obs.String hostile);
        ("xs", Putil.Obs.List [ Putil.Obs.Float 0.1; Putil.Obs.Int 0 ]);
        ("ok", Putil.Obs.Bool false);
        ("nothing", Putil.Obs.Null);
      ]
  in
  Alcotest.check json "emit-parse identity" v
    (Serve.Json.of_string (Serve.Json.to_string v))

let test_json_hostile_inputs_raise () =
  List.iter
    (fun s ->
      match Serve.Json.of_string s with
      | v ->
          Alcotest.failf "%S parsed to %s" s (Serve.Json.to_string v)
      | exception Serve.Json.Error _ -> ())
    [
      ""; "{"; "}"; "[1,"; "[1 2]"; "{\"a\":}"; "{\"a\" 1}"; "{'a':1}";
      "\"unterminated"; "\"bad \\x escape\""; "tru"; "01x"; "1.2.3";
      "{\"a\":1} trailing"; "\"\\u12\"";
    ]

let test_json_accessors () =
  let j = Serve.Json.of_string "{\"n\":3,\"f\":2.5,\"s\":\"x\",\"l\":[1,2]}" in
  Alcotest.(check (option int)) "int" (Some 3) (Serve.Json.get_int "n" j);
  Alcotest.(check (option (float 0.0))) "float" (Some 2.5)
    (Serve.Json.get_float "f" j);
  Alcotest.(check (option (float 0.0))) "int widens to float" (Some 3.0)
    (Serve.Json.get_float "n" j);
  Alcotest.(check (option string)) "string" (Some "x")
    (Serve.Json.get_string "s" j);
  Alcotest.(check (list int)) "int list" [ 1; 2 ]
    (Serve.Json.get_int_list "l" j);
  Alcotest.(check (option int)) "absent is None" None
    (Serve.Json.get_int "missing" j);
  Alcotest.(check (list int)) "absent list is empty" []
    (Serve.Json.get_int_list "missing" j);
  (match Serve.Json.get_int "s" j with
  | _ -> Alcotest.fail "wrong type must raise"
  | exception Serve.Json.Error _ -> ())

(* ------------------------------------------------------------------ *)
(* protocol: request parsing and keys                                  *)
(* ------------------------------------------------------------------ *)

let parse s = Serve.Protocol.request_of_string s

let test_protocol_parse_defaults () =
  let r = parse "{\"id\":7,\"op\":\"sweep\"}" in
  Alcotest.(check int) "id" 7 r.Serve.Protocol.id;
  (match r.Serve.Protocol.op with
  | Serve.Protocol.Sweep { ranks; iters; seed } ->
      Alcotest.(check (list int)) "CLI defaults" [ 16; 10; 42 ]
        [ ranks; iters; seed ]
  | _ -> Alcotest.fail "expected Sweep");
  match (parse "{\"id\":0,\"op\":\"energy\",\"cap\":55.5}").Serve.Protocol.op with
  | Serve.Protocol.Energy { app; cap; deadline; _ } ->
      Alcotest.(check bool) "default app" true (app = Workloads.Apps.CoMD);
      Alcotest.(check (float 0.0)) "cap" 55.5 cap;
      Alcotest.(check bool) "no deadline" true (deadline = None)
  | _ -> Alcotest.fail "expected Energy"

let test_protocol_parse_what_if_edits () =
  let r =
    parse
      "{\"id\":1,\"op\":\"what-if\",\"app\":\"bt\",\"fail_sockets\":[2],\
       \"drop_ranks\":[0,3],\"perturb_tasks\":[{\"tid\":17,\"point\":2,\
       \"duration\":0.5,\"power\":91.5}]}"
  in
  match r.Serve.Protocol.op with
  | Serve.Protocol.What_if { app; edits; _ } ->
      Alcotest.(check bool) "app" true (app = Workloads.Apps.BT);
      Alcotest.(check int) "all edits collected" 4 (List.length edits);
      Alcotest.(check bool) "perturb parsed" true
        (List.exists
           (function
             | Core.Event_lp.Perturb_task { tid = 17; point = 2; _ } -> true
             | _ -> false)
           edits)
  | _ -> Alcotest.fail "expected What_if"

let test_protocol_rejects () =
  let rejects s =
    match parse s with
    | _ -> Alcotest.failf "%S must be rejected" s
    | exception Serve.Json.Error _ -> ()
  in
  rejects "{\"op\":\"sweep\"}" (* no id *);
  rejects "{\"id\":1}" (* no op *);
  rejects "{\"id\":1,\"op\":\"swep\"}";
  rejects "{\"id\":1,\"op\":\"energy\",\"app\":\"nosuchapp\"}";
  rejects "{\"id\":1,\"op\":\"what-if\",\"perturb_tasks\":[{\"tid\":1}]}";
  rejects "not json at all";
  (* out-of-range scenario parameters, with the CLI's bounds: the
     error names the field *)
  let rejects_field field s =
    match parse s with
    | _ -> Alcotest.failf "%S must be rejected" s
    | exception Serve.Json.Error msg ->
        let quoted = Printf.sprintf "%S" field in
        let n = String.length quoted in
        let rec mentions i =
          i + n <= String.length msg
          && (String.sub msg i n = quoted || mentions (i + 1))
        in
        if not (mentions 0) then
          Alcotest.failf "error for %S does not name %s: %s" s quoted msg
  in
  rejects_field "ranks" "{\"id\":1,\"op\":\"sweep\",\"ranks\":0,\"iters\":1}";
  rejects_field "ranks" "{\"id\":1,\"op\":\"what-if\",\"ranks\":-2}";
  rejects_field "iters" "{\"id\":1,\"op\":\"energy\",\"iters\":0}";
  rejects_field "iters" "{\"id\":1,\"op\":\"sweep\",\"ranks\":2,\"iters\":0}";
  rejects_field "cap" "{\"id\":1,\"op\":\"energy\",\"cap\":0}";
  rejects_field "cap" "{\"id\":1,\"op\":\"what-if\",\"cap\":-40}";
  rejects_field "deadline" "{\"id\":1,\"op\":\"energy\",\"deadline\":0}";
  rejects_field "deadline" "{\"id\":1,\"op\":\"energy\",\"deadline\":-1.5}"

let test_request_keys () =
  let key s =
    match Serve.Protocol.request_key (parse s).Serve.Protocol.op with
    | Some k -> k
    | None -> Alcotest.fail "expected a key"
  in
  (* equal requests derive equal keys, independent of field order and
     of which defaults are spelled out *)
  Alcotest.(check string) "key ignores field order"
    (key "{\"id\":1,\"op\":\"sweep\",\"ranks\":16}")
    (key "{\"ranks\":16,\"op\":\"sweep\",\"id\":99}");
  Alcotest.(check string) "defaults spelled out or omitted"
    (key "{\"id\":1,\"op\":\"sweep\"}")
    (key "{\"id\":1,\"op\":\"sweep\",\"ranks\":16,\"iters\":10,\"seed\":42}");
  (* every parameter is key-relevant *)
  let base = key "{\"id\":1,\"op\":\"energy\"}" in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s re-keys" s)
        false
        (String.equal base (key s)))
    [
      "{\"id\":1,\"op\":\"energy\",\"ranks\":17}";
      "{\"id\":1,\"op\":\"energy\",\"cap\":41}";
      "{\"id\":1,\"op\":\"energy\",\"deadline\":1.5}";
      "{\"id\":1,\"op\":\"energy\",\"app\":\"sp\"}";
      "{\"id\":1,\"op\":\"sweep\"}";
    ];
  (* stats and shutdown are not cacheable *)
  Alcotest.(check bool) "stats has no key" true
    (Serve.Protocol.request_key Serve.Protocol.Stats = None);
  Alcotest.(check bool) "shutdown has no key" true
    (Serve.Protocol.request_key Serve.Protocol.Shutdown = None)

(* ------------------------------------------------------------------ *)
(* daemon round-trip over a real socket                                *)
(* ------------------------------------------------------------------ *)

let mkdtemp () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "powerlim-serve-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_cache_enabled f =
  let was = Putil.Cache.enabled () in
  Putil.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Putil.Cache.set_enabled was;
      Putil.Cache.clear_all ())
    f

(* Start a daemon on a fresh Unix socket under [dir], run [f client],
   shut the daemon down and join it. *)
let with_daemon ?store_root dir f =
  let cfg =
    {
      (Serve.Daemon.default_config
         (Serve.Daemon.Unix_socket (Filename.concat dir "sock")))
      with
      Serve.Daemon.store_root;
    }
  in
  let d = Serve.Daemon.start cfg in
  let c = Serve.Client.connect_retry (Serve.Daemon.address d) in
  Fun.protect
    ~finally:(fun () ->
      (let c2 = Serve.Client.connect_retry (Serve.Daemon.address d) in
       ignore
         (Serve.Client.request c2
            (Serve.Json.of_string "{\"op\":\"shutdown\"}"));
       Serve.Client.close c2);
      Serve.Client.close c;
      Serve.Daemon.wait d)
    (fun () -> f c)

let get_exn name resp =
  match Serve.Json.member name resp with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let str_exn name resp =
  match get_exn name resp with
  | Putil.Obs.String s -> s
  | _ -> Alcotest.failf "%S is not a string" name

let test_daemon_byte_identity_and_tiers () =
  with_cache_enabled (fun () ->
      let dir = mkdtemp () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let store = Filename.concat dir "store" in
          let req =
            "{\"op\":\"energy\",\"ranks\":4,\"iters\":2,\"cap\":40,\
             \"deadline\":10.0}"
          in
          let offline =
            Serve.Handlers.energy ~app:Workloads.Apps.CoMD ~ranks:4 ~iters:2
              ~seed:42 ~cap:40.0 ~deadline:(Some 10.0) ()
          in
          (* daemon 1: cold compute, then a memory hit, byte-identical *)
          with_daemon ~store_root:store dir (fun c ->
              let r1 = Serve.Client.request c (Serve.Json.of_string req) in
              Alcotest.(check bool) "ok" true
                (get_exn "ok" r1 = Putil.Obs.Bool true);
              Alcotest.(check string) "cold response is computed" "none"
                (str_exn "cached" r1);
              Alcotest.(check string) "served stdout = CLI stdout"
                offline.Serve.Handlers.out (str_exn "output" r1);
              Alcotest.(check string) "served stderr = CLI stderr"
                offline.Serve.Handlers.err (str_exn "err" r1);
              Alcotest.(check bool) "status echoed" true
                (get_exn "status" r1
                = Putil.Obs.Int offline.Serve.Handlers.status);
              let r2 = Serve.Client.request c (Serve.Json.of_string req) in
              Alcotest.(check string) "repeat hits memory" "mem"
                (str_exn "cached" r2);
              Alcotest.(check string) "memory tier returns equal bytes"
                (str_exn "output" r1) (str_exn "output" r2);
              (* an invalid edit (BT task 4 does no work) is refused
                 exactly as the CLI refuses it: status 2, one stderr
                 line, nothing on stdout *)
              let bad =
                Serve.Handlers.what_if ~app:Workloads.Apps.BT ~ranks:4
                  ~iters:2 ~seed:42 ~cap:40.0
                  ~edits:
                    [
                      Core.Event_lp.Perturb_task
                        { tid = 4; point = 0; duration = 0.1; power = 50.0 };
                    ]
                  ()
              in
              Alcotest.(check int) "bad edit exits 2" 2
                bad.Serve.Handlers.status;
              let rb =
                Serve.Client.request c
                  (Serve.Json.of_string
                     "{\"op\":\"what-if\",\"app\":\"bt\",\"ranks\":4,\
                      \"iters\":2,\"cap\":40,\"perturb_tasks\":[{\"tid\":4,\
                      \"point\":0,\"duration\":0.1,\"power\":50}]}")
              in
              Alcotest.(check string) "bad edit: served stdout = CLI stdout"
                bad.Serve.Handlers.out (str_exn "output" rb);
              Alcotest.(check string) "bad edit: served stderr = CLI stderr"
                bad.Serve.Handlers.err (str_exn "err" rb);
              Alcotest.(check bool) "bad edit: status echoed" true
                (get_exn "status" rb = Putil.Obs.Int 2));
          (* daemon 2, same store root, cold caches: the disk tier must
             revive the response computed by daemon 1 *)
          Putil.Cache.clear_all ();
          with_daemon ~store_root:store dir (fun c ->
              let r3 = Serve.Client.request c (Serve.Json.of_string req) in
              Alcotest.(check string) "restart hits the disk tier" "disk"
                (str_exn "cached" r3);
              Alcotest.(check string) "disk tier returns equal bytes"
                offline.Serve.Handlers.out (str_exn "output" r3))))

(* A store written by another build holds that build's renderings under
   that build's output version.  Plant another request's bytes under the
   other version's key: a restarted daemon must compute afresh, not serve
   them.  The same bytes planted under the current key are served (the
   control), so the plant itself reaches the disk tier. *)
let test_daemon_ignores_other_output_versions () =
  with_cache_enabled (fun () ->
      let dir = mkdtemp () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let store = Filename.concat dir "store" in
          let req cap =
            Printf.sprintf
              "{\"op\":\"energy\",\"ranks\":4,\"iters\":2,\"cap\":%d,\
               \"deadline\":10.0}"
              cap
          in
          let key ~version cap =
            Option.get
              (Serve.Protocol.versioned_key ~version
                 (Serve.Protocol.op_of_json (Serve.Json.of_string (req cap))))
          in
          let current = Serve.Protocol.output_version in
          let served cap =
            Putil.Cache.clear_all ();
            with_daemon ~store_root:store dir (fun c ->
                let r = Serve.Client.request c (Serve.Json.of_string (req cap)) in
                (str_exn "cached" r, str_exn "output" r))
          in
          let _, out45 = served 45 in
          let plant ~version =
            let s = Putil.Disk_store.open_ ~root:store () in
            Putil.Disk_store.put s (key ~version 40)
              (Option.get (Putil.Disk_store.get s (key ~version:current 45)))
          in
          let offline =
            Serve.Handlers.energy ~app:Workloads.Apps.CoMD ~ranks:4 ~iters:2
              ~seed:42 ~cap:40.0 ~deadline:(Some 10.0) ()
          in
          Alcotest.(check bool) "the planted bytes differ" false
            (String.equal out45 offline.Serve.Handlers.out);
          plant ~version:(current - 1);
          let cached, out = served 40 in
          Alcotest.(check string) "another version's entry is not served"
            "none" cached;
          Alcotest.(check string) "computed bytes = CLI bytes"
            offline.Serve.Handlers.out out;
          plant ~version:current;
          let cached, out = served 40 in
          Alcotest.(check string) "control: the current key hits disk" "disk"
            cached;
          Alcotest.(check string) "control: the planted bytes are served"
            out45 out))

(* A daemon solves each what-if base once: a second what-if on the same
   (scenario, cap) takes the base's outcome and basis from the pipeline's
   base stage and runs only its warm edit, and still returns the offline
   CLI's bytes.  The offline references are rendered with the cache off,
   as a fresh CLI process would, so each solves its base cold. *)
let test_daemon_what_if_base_stage () =
  let fail = ([ Core.Event_lp.Fail_socket 1 ], "\"fail_sockets\":[1]") in
  let drop = ([ Core.Event_lp.Drop_rank 2 ], "\"drop_ranks\":[2]") in
  let fail40 = (40.0, fail) and drop40 = (40.0, drop) in
  let fail45 = (45.0, fail) in
  let cold_solves () = (Lp.Stats.snapshot ()).Lp.Stats.cold_solves in
  let counting f =
    let c0 = cold_solves () in
    let v = f () in
    (v, cold_solves () - c0)
  in
  let with_cache_off f =
    let was = Putil.Cache.enabled () in
    Putil.Cache.set_enabled false;
    Fun.protect ~finally:(fun () -> Putil.Cache.set_enabled was) f
  in
  let offline (cap, (edits, _)) =
    with_cache_off (fun () ->
        let o, cold =
          counting (fun () ->
              Serve.Handlers.what_if ~app:Workloads.Apps.CoMD ~ranks:4 ~iters:3
                ~seed:42 ~cap ~edits ())
        in
        Alcotest.(check int) "offline: one cold solve (the base)" 1 cold;
        o)
  in
  let o_fail40 = offline fail40
  and o_drop40 = offline drop40
  and o_fail45 = offline fail45 in
  let serve c (cap, (_, field)) =
    counting (fun () ->
        Serve.Client.request c
          (Serve.Json.of_string
             (Printf.sprintf
                "{\"op\":\"what-if\",\"app\":\"comd\",\"ranks\":4,\
                 \"iters\":3,\"cap\":%g,%s}"
                cap field)))
  in
  let same_bytes what (o : Serve.Handlers.outcome) r =
    Alcotest.(check string) (what ^ ": stdout = CLI stdout")
      o.Serve.Handlers.out (str_exn "output" r);
    Alcotest.(check string) (what ^ ": stderr = CLI stderr")
      o.Serve.Handlers.err (str_exn "err" r);
    Alcotest.(check bool) (what ^ ": status echoed") true
      (get_exn "status" r = Putil.Obs.Int o.Serve.Handlers.status)
  in
  let base () =
    Pipeline.Stages.base
      (Pipeline.Stages.Synthetic
         ( Workloads.Apps.CoMD,
           { Workloads.Apps.nranks = 4; iterations = 3; seed = 42; scale = 1.0 }
         ))
      ~power_cap:160.0
  in
  let copy_basis (b : Pipeline.Stages.base) =
    Option.map
      (fun (w : Lp.Revised.basis) ->
        (Array.copy w.Lp.Revised.basic, Array.copy w.Lp.Revised.vstat))
      b.Pipeline.Stages.basis
  in
  let dir = mkdtemp () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_cache_enabled (fun () ->
          Putil.Cache.clear_all ();
          with_daemon dir (fun c ->
              let r, cold = serve c fail40 in
              same_bytes "first what-if" o_fail40 r;
              Alcotest.(check int) "first what-if solves its base" 1 cold;
              let b = base () in
              let before = copy_basis b in
              Alcotest.(check bool) "the base has a basis" true
                (before <> None);
              let r, cold = serve c drop40 in
              same_bytes "second what-if" o_drop40 r;
              Alcotest.(check int) "second what-if: base-stage hit" 0 cold;
              Alcotest.(check bool) "one shared base" true (base () == b);
              Alcotest.(check bool) "cached basis unchanged by the edit" true
                (copy_basis b = before);
              let r, cold = serve c fail45 in
              same_bytes "other cap" o_fail45 r;
              Alcotest.(check int) "another cap misses" 1 cold));
      (* POWERLIM_CACHE=0: the same bytes, a cold base solve per request *)
      with_cache_off (fun () ->
          with_daemon dir (fun c ->
              List.iter
                (fun (case, o) ->
                  let r, cold = serve c case in
                  same_bytes "cache off" o r;
                  Alcotest.(check int) "cache off: a cold solve per request" 1
                    cold)
                [
                  (fail40, o_fail40); (drop40, o_drop40); (fail45, o_fail45);
                ])))

let test_daemon_refuses_malformed_under_client_id () =
  with_cache_enabled (fun () ->
      let dir = mkdtemp () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          with_daemon dir (fun c ->
              (* unknown op: refused, under the id the client sent *)
              let r =
                Serve.Client.request c
                  (Serve.Json.of_string "{\"id\":123,\"op\":\"swep\"}")
              in
              Alcotest.(check bool) "not ok" true
                (get_exn "ok" r = Putil.Obs.Bool false);
              Alcotest.(check bool) "id echoed" true
                (get_exn "id" r = Putil.Obs.Int 123);
              Alcotest.(check bool) "error names the op" true
                (let e = str_exn "error" r in
                 let sub = "swep" in
                 let n = String.length e and m = String.length sub in
                 let rec scan i =
                   i + m <= n && (String.sub e i m = sub || scan (i + 1))
                 in
                 scan 0);
              (* non-JSON line: refused with id -1, connection stays up *)
              Serve.Client.send_line c "this is not json";
              (match Serve.Client.recv c with
              | Some r ->
                  Alcotest.(check bool) "refused" true
                    (get_exn "ok" r = Putil.Obs.Bool false)
              | None -> Alcotest.fail "connection dropped");
              (* the same connection still serves valid requests *)
              let r =
                Serve.Client.request c
                  (Serve.Json.of_string "{\"op\":\"stats\"}")
              in
              Alcotest.(check bool) "stats still served" true
                (get_exn "ok" r = Putil.Obs.Bool true);
              match get_exn "stats" r with
              | Putil.Obs.Assoc kvs ->
                  Alcotest.(check bool) "stats counts the errors" true
                    (match List.assoc_opt "errors" kvs with
                    | Some (Putil.Obs.Int n) -> n >= 2
                    | _ -> false);
                  Alcotest.(check bool) "stats carry the solver layer timers"
                    true
                    (match List.assoc_opt "providers" kvs with
                    | Some (Putil.Obs.Assoc ps) -> (
                        match List.assoc_opt "lp" ps with
                        | Some (Putil.Obs.Assoc lp) ->
                            List.for_all
                              (fun k -> List.mem_assoc k lp)
                              [
                                "factor_s"; "ftran_s"; "btran_s"; "price_s";
                                "ratio_s"; "update_s"; "phase1_pivots";
                                "slack_starts"; "slack_fallbacks";
                              ]
                        | _ -> false)
                    | _ -> false)
              | _ -> Alcotest.fail "stats payload is not an object")))

let suite =
  [
    ( "serve.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "emit-parse identity" `Quick
          test_json_emit_parse_identity;
        Alcotest.test_case "hostile inputs raise" `Quick
          test_json_hostile_inputs_raise;
        Alcotest.test_case "typed accessors" `Quick test_json_accessors;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "defaults mirror the CLI" `Quick
          test_protocol_parse_defaults;
        Alcotest.test_case "what-if edits" `Quick
          test_protocol_parse_what_if_edits;
        Alcotest.test_case "malformed requests rejected" `Quick
          test_protocol_rejects;
        Alcotest.test_case "request keys are content-addressed" `Quick
          test_request_keys;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "byte identity across mem/disk tiers" `Slow
          test_daemon_byte_identity_and_tiers;
        Alcotest.test_case "other output versions are not served" `Slow
          test_daemon_ignores_other_output_versions;
        Alcotest.test_case "what-if bases solved once per process" `Slow
          test_daemon_what_if_base_stage;
        Alcotest.test_case "malformed requests refused under client id"
          `Quick test_daemon_refuses_malformed_under_client_id;
      ] );
  ]
