(* Tests for the crash-safe write path (Putil.Fileio), the on-disk
   artifact store (Putil.Disk_store) and the validated environment
   readers (Putil.Env): atomicity under exceptions, debris sweeping,
   corrupt-artifact quarantine, LRU eviction under a byte bound,
   cross-open warmth, and the warn-once knob rejection contract. *)

let mkdtemp () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "powerlim-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
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

let with_dir f =
  let dir = mkdtemp () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Fileio: atomic writes                                               *)
(* ------------------------------------------------------------------ *)

let test_fileio_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Putil.Fileio.write path "hello \x00 binary \xff bytes";
      Alcotest.(check string) "round-trips binary content"
        "hello \x00 binary \xff bytes" (Putil.Fileio.read path);
      (* overwrite goes through the same rename, old content replaced *)
      Putil.Fileio.write path "v2";
      Alcotest.(check string) "replaced" "v2" (Putil.Fileio.read path);
      Alcotest.(check (list string)) "no temp debris left" [ "out.json" ]
        (Array.to_list (Sys.readdir dir)))

let test_fileio_exception_leaves_target_untouched () =
  with_dir (fun dir ->
      let path = Filename.concat dir "out.json" in
      Putil.Fileio.write path "original";
      (match
         Putil.Fileio.with_out path (fun oc ->
             output_string oc "partial garbage";
             failwith "writer crashed")
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
      Alcotest.(check string) "target keeps the previous bytes" "original"
        (Putil.Fileio.read path);
      Alcotest.(check (list string)) "temp file was removed" [ "out.json" ]
        (Array.to_list (Sys.readdir dir)))

let test_fileio_temp_naming () =
  Alcotest.(check bool) "recognizes its own temp names" true
    (Putil.Fileio.is_temp "x.art.tmp-powerlim-123.0");
  Alcotest.(check bool) "plain artifacts are not temps" false
    (Putil.Fileio.is_temp "serve-abcdef.art")

(* ------------------------------------------------------------------ *)
(* Disk store: basic mechanics                                         *)
(* ------------------------------------------------------------------ *)

let test_store_put_get () =
  with_dir (fun dir ->
      let s = Putil.Disk_store.open_ ~root:dir () in
      Alcotest.(check (option string)) "miss on empty store" None
        (Putil.Disk_store.get s "serve:deadbeef");
      Putil.Disk_store.put s "serve:deadbeef" "payload bytes";
      Alcotest.(check (option string)) "hit returns the payload"
        (Some "payload bytes")
        (Putil.Disk_store.get s "serve:deadbeef");
      Alcotest.(check bool) "mem sees it" true
        (Putil.Disk_store.mem s "serve:deadbeef");
      Alcotest.(check int) "one entry" 1 (Putil.Disk_store.entries s);
      let st = Putil.Disk_store.stats s in
      Alcotest.(check int) "one miss" 1 st.Putil.Disk_store.misses;
      Alcotest.(check int) "one hit" 1 st.Putil.Disk_store.hits;
      Alcotest.(check int) "one put" 1 st.Putil.Disk_store.puts)

let test_store_debris_swept_on_open () =
  with_dir (fun dir ->
      (* a killed writer leaves a temp file; open_ must sweep it and
         must not index it as an artifact *)
      let debris = Filename.concat dir "serve-x.art.tmp-powerlim-99.0" in
      let oc = open_out debris in
      output_string oc "torn";
      close_out oc;
      let s = Putil.Disk_store.open_ ~root:dir () in
      Alcotest.(check bool) "debris removed" false (Sys.file_exists debris);
      Alcotest.(check int) "nothing indexed" 0 (Putil.Disk_store.entries s))

let test_store_corrupt_artifact_is_clean_miss () =
  with_dir (fun dir ->
      let s = Putil.Disk_store.open_ ~root:dir () in
      Putil.Disk_store.put s "k" "precious";
      (* corrupt the artifact in place (flip bytes mid-file), keeping
         its final name: the digest check must catch it *)
      let file =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".art")
            (Array.to_list (Sys.readdir dir))
        with
        | [ f ] -> Filename.concat dir f
        | l -> Alcotest.failf "expected one artifact, got %d" (List.length l)
      in
      let bytes = Putil.Fileio.read file in
      let corrupted = Bytes.of_string bytes in
      let mid = Bytes.length corrupted - 1 in
      Bytes.set corrupted mid
        (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0xff));
      let oc = open_out_bin file in
      output_bytes oc corrupted;
      close_out oc;
      (* a second open simulates the restart that finds the bad file *)
      let s2 = Putil.Disk_store.open_ ~root:dir () in
      Alcotest.(check (option string)) "corrupt artifact reads as a miss"
        None (Putil.Disk_store.get s2 "k");
      Alcotest.(check bool) "and is quarantined (deleted)" false
        (Sys.file_exists file);
      Alcotest.(check (option string)) "stays a miss" None
        (Putil.Disk_store.get s2 "k");
      ignore s)

let test_store_truncated_artifact_is_clean_miss () =
  with_dir (fun dir ->
      let s = Putil.Disk_store.open_ ~root:dir () in
      Putil.Disk_store.put s "k" (String.make 256 'x');
      let file =
        Filename.concat dir
          (List.find
             (fun f -> Filename.check_suffix f ".art")
             (Array.to_list (Sys.readdir dir)))
      in
      let bytes = Putil.Fileio.read file in
      let oc = open_out_bin file in
      output_string oc (String.sub bytes 0 (String.length bytes / 2));
      close_out oc;
      let s2 = Putil.Disk_store.open_ ~root:dir () in
      Alcotest.(check (option string)) "truncated artifact reads as a miss"
        None (Putil.Disk_store.get s2 "k");
      Alcotest.(check bool) "and is deleted" false (Sys.file_exists file))

let test_store_eviction_under_size_bound () =
  with_dir (fun dir ->
      (* each artifact is ~1KB of payload plus framing; a 4KB bound
         holds only a few *)
      let payload i = String.make 1024 (Char.chr (Char.code 'a' + i)) in
      let s = Putil.Disk_store.open_ ~limit_bytes:4096 ~root:dir () in
      for i = 0 to 7 do
        Putil.Disk_store.put s (Printf.sprintf "k%d" i) (payload i)
      done;
      Alcotest.(check bool) "bounded bytes" true
        (Putil.Disk_store.total_bytes s <= 4096);
      let st = Putil.Disk_store.stats s in
      Alcotest.(check bool) "evicted something" true
        (st.Putil.Disk_store.evictions > 0);
      (* LRU: the freshest key survives, the oldest is gone *)
      Alcotest.(check (option string)) "freshest survives" (Some (payload 7))
        (Putil.Disk_store.get s "k7");
      Alcotest.(check (option string)) "oldest evicted" None
        (Putil.Disk_store.get s "k0"))

let test_store_oversized_artifact_not_stored () =
  with_dir (fun dir ->
      let s = Putil.Disk_store.open_ ~limit_bytes:512 ~root:dir () in
      Putil.Disk_store.put s "big" (String.make 4096 'x');
      Alcotest.(check (option string)) "larger than the whole bound" None
        (Putil.Disk_store.get s "big");
      Alcotest.(check int) "no entries" 0 (Putil.Disk_store.entries s))

let test_store_warm_across_opens () =
  with_dir (fun dir ->
      let s1 = Putil.Disk_store.open_ ~root:dir () in
      Putil.Disk_store.put s1 "warm-key" "survives restarts";
      (* a second open_ plays the role of the restarted process: it
         must index the artifact from the directory alone *)
      let s2 = Putil.Disk_store.open_ ~root:dir () in
      Alcotest.(check int) "restart indexes the artifact" 1
        (Putil.Disk_store.entries s2);
      Alcotest.(check (option string)) "restart reads it back"
        (Some "survives restarts")
        (Putil.Disk_store.get s2 "warm-key"))

let test_store_cross_process_visibility () =
  with_dir (fun dir ->
      (* both handles open before the write: handle B's in-memory index
         cannot know the key, so its get must probe the filesystem *)
      let a = Putil.Disk_store.open_ ~root:dir () in
      let b = Putil.Disk_store.open_ ~root:dir () in
      Putil.Disk_store.put a "late-key" "written after b opened";
      Alcotest.(check (option string)) "b sees a's write"
        (Some "written after b opened")
        (Putil.Disk_store.get b "late-key"))

(* ------------------------------------------------------------------ *)
(* cache <-> store tier wiring                                         *)
(* ------------------------------------------------------------------ *)

let with_cache_enabled f =
  let was = Putil.Cache.enabled () in
  Putil.Cache.set_enabled true;
  Fun.protect ~finally:(fun () -> Putil.Cache.set_enabled was) f

let test_cache_spills_to_store_and_revives () =
  with_dir (fun dir ->
      with_cache_enabled (fun () ->
          let s = Putil.Disk_store.open_ ~root:dir () in
          let c = Putil.Cache.create ~capacity:2 ~name:"test-tier" () in
          Putil.Cache.set_tier c
            ~spill:(fun key v -> Putil.Disk_store.put s key v)
            ~revive:(fun key -> Putil.Disk_store.get s key)
            ();
          let v, w = Putil.Cache.find_or_build_where c "a" (fun () -> "A") in
          Alcotest.(check string) "built value" "A" v;
          Alcotest.(check bool) "first lookup builds" true (w = `Built);
          let _, w = Putil.Cache.find_or_build_where c "a" (fun () -> "A'") in
          Alcotest.(check bool) "second lookup hits memory" true (w = `Hit);
          (* push "a" out of the 2-entry cache: eviction must spill *)
          ignore (Putil.Cache.find_or_build c "b" (fun () -> "B"));
          ignore (Putil.Cache.find_or_build c "c" (fun () -> "C"));
          Alcotest.(check (option string)) "evicted entry spilled to disk"
            (Some "A") (Putil.Disk_store.get s "a");
          let v, w =
            Putil.Cache.find_or_build_where c "a" (fun () ->
                Alcotest.fail "revive must preempt the builder")
          in
          Alcotest.(check string) "revived bytes" "A" v;
          Alcotest.(check bool) "provenance is revived" true (w = `Revived);
          let _, w = Putil.Cache.find_or_build_where c "a" (fun () -> "A''") in
          Alcotest.(check bool) "revived entry is resident again" true
            (w = `Hit)))

(* ------------------------------------------------------------------ *)
(* Env: validated knob readers                                         *)
(* ------------------------------------------------------------------ *)

(* Scoped env override; putenv cannot unset, so restore to "" which the
   readers treat as unset. *)
let with_env kvs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) kvs in
  List.iter (fun (k, v) -> Unix.putenv k v) kvs;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
        saved;
      Putil.Env.reset_warnings ())

let test_env_empty_means_default () =
  with_env [ ("POWERLIM_TEST_KNOB", "") ] (fun () ->
      Alcotest.(check int) "empty = default" 7
        (Putil.Env.int "POWERLIM_TEST_KNOB" ~default:7));
  with_env [ ("POWERLIM_TEST_KNOB", "   ") ] (fun () ->
      Alcotest.(check int) "whitespace-only = default" 7
        (Putil.Env.int "POWERLIM_TEST_KNOB" ~default:7))

let test_env_malformed_rejected_with_default () =
  with_env [ ("POWERLIM_TEST_KNOB", "banana") ] (fun () ->
      Putil.Env.reset_warnings ();
      Alcotest.(check int) "malformed int falls back" 5
        (Putil.Env.int "POWERLIM_TEST_KNOB" ~default:5);
      Alcotest.(check bool) "malformed flag falls back" true
        (Putil.Env.flag "POWERLIM_TEST_KNOB" ~default:true);
      Alcotest.(check
                  (list (pair string string)))
        "rejection recorded once per variable"
        [ ("POWERLIM_TEST_KNOB", "banana") ]
        (Putil.Env.rejected ()))

let test_env_flag_spellings () =
  List.iter
    (fun v ->
      with_env [ ("POWERLIM_TEST_KNOB", v) ] (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "%S is false" v)
            false
            (Putil.Env.flag "POWERLIM_TEST_KNOB" ~default:true)))
    [ "0"; "false"; "off"; "no"; "FALSE"; "Off" ];
  List.iter
    (fun v ->
      with_env [ ("POWERLIM_TEST_KNOB", v) ] (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "%S is true" v)
            true
            (Putil.Env.flag "POWERLIM_TEST_KNOB" ~default:false)))
    [ "1"; "true"; "on"; "yes"; "TRUE"; "On" ]

let suite =
  [
    ( "util.store",
      [
        Alcotest.test_case "fileio round-trip, no debris" `Quick
          test_fileio_roundtrip;
        Alcotest.test_case "fileio exception leaves target untouched" `Quick
          test_fileio_exception_leaves_target_untouched;
        Alcotest.test_case "fileio temp naming" `Quick test_fileio_temp_naming;
        Alcotest.test_case "store put/get" `Quick test_store_put_get;
        Alcotest.test_case "debris swept on open" `Quick
          test_store_debris_swept_on_open;
        Alcotest.test_case "corrupt artifact = clean miss" `Quick
          test_store_corrupt_artifact_is_clean_miss;
        Alcotest.test_case "truncated artifact = clean miss" `Quick
          test_store_truncated_artifact_is_clean_miss;
        Alcotest.test_case "eviction under size bound" `Quick
          test_store_eviction_under_size_bound;
        Alcotest.test_case "oversized artifact not stored" `Quick
          test_store_oversized_artifact_not_stored;
        Alcotest.test_case "warm across opens" `Quick
          test_store_warm_across_opens;
        Alcotest.test_case "cross-process visibility" `Quick
          test_store_cross_process_visibility;
        Alcotest.test_case "cache spills to store and revives" `Quick
          test_cache_spills_to_store_and_revives;
      ] );
    ( "util.env",
      [
        Alcotest.test_case "empty means default" `Quick
          test_env_empty_means_default;
        Alcotest.test_case "malformed rejected with default" `Quick
          test_env_malformed_rejected_with_default;
        Alcotest.test_case "flag spellings" `Quick test_env_flag_spellings;
      ] );
  ]
