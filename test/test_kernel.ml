(* Tests for the simulated microkernel: rendezvous IPC, temporally
   unique endpoints, notifications, async sends, grants + safecopy,
   privileges, kills during IPC, alarms, IRQ routing and DMA. *)

module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Metrics = Resilix_obs.Metrics
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown

let make_kernel () =
  let engine = Engine.create () in
  let trace = Trace.create () in
  let rng = Rng.create ~seed:1 in
  let kernel = Kernel.create ~engine ~trace ~rng () in
  (engine, kernel)

let all_priv =
  {
    Privilege.none with
    Privilege.ipc_to = Privilege.All;
    kcalls = Privilege.All;
    io_ports = [ (0, 0xFFFF) ];
    irqs = List.init 32 Fun.id;
  }

let ep slot = Endpoint.make ~slot ~gen:1

(* Spawn a test process at a dynamic slot with full privileges. *)
let spawn kernel name body =
  Kernel.register_program kernel name body;
  match
    Kernel.spawn_dynamic kernel ~name ~program:name ~args:[] ~priv:all_priv ~mem_kb:64
  with
  | Ok e -> e
  | Error _ -> Alcotest.fail "spawn failed"

let errno = Alcotest.testable Errno.pp Errno.equal

(* Port accesses through a process's handle, as results: a refusal
   reads as the [E_no_perm] the kernel call it replaced answered. *)
let port_in (ports : Sysif.ports) port =
  match ports.port_in port with v -> Ok v | exception Sysif.Port_refused -> Error Errno.E_no_perm

let port_out (ports : Sysif.ports) port value =
  match ports.port_out port value with
  | () -> Ok ()
  | exception Sysif.Port_refused -> Error Errno.E_no_perm

let test_rendezvous_send_receive () =
  let engine, kernel = make_kernel () in
  let got = ref None in
  let receiver =
    spawn kernel "receiver" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { body = Message.Dev_open { minor }; _ }) -> got := Some minor
        | _ -> ())
  in
  let _sender =
    spawn kernel "sender" (fun () -> ignore (Api.send receiver (Message.Dev_open { minor = 7 })))
  in
  Engine.run engine;
  Alcotest.(check (option int)) "message delivered" (Some 7) !got

let test_sender_blocks_until_receive () =
  let engine, kernel = make_kernel () in
  let send_done_at = ref 0 in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 1000;
        ignore (Api.receive Sysif.Any))
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        ignore (Api.send receiver Message.Ok_reply);
        send_done_at := Api.now ())
  in
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "send completed only after receive (at %d)" !send_done_at)
    true (!send_done_at >= 1000)

let test_sendrec_reply () =
  let engine, kernel = make_kernel () in
  let reply = ref None in
  let server =
    spawn kernel "server" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; body = Message.Dev_read _ }) ->
            ignore (Api.send src (Message.Dev_reply { result = Ok 42 }))
        | _ -> ())
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec server (Message.Dev_read { minor = 0; pos = 0; grant = 0; len = 0 }) with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok n }; _ }) -> reply := Some n
        | _ -> ())
  in
  Engine.run engine;
  Alcotest.(check (option int)) "sendrec got the reply" (Some 42) !reply

(* While A waits for its sendrec reply, an asend from the sendrec's
   destination completes the call: the kernel hands it over like a
   send.  Only notifications are held back until the reply (see
   DESIGN.md, "Sendrec replies"). *)
let test_asend_completes_sendrec () =
  let engine, kernel = make_kernel () in
  let reply = ref None in
  let server =
    spawn kernel "server" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) ->
            ignore (Api.asend src (Message.Dev_reply { result = Ok 1 }));
            ignore (Api.send src (Message.Dev_reply { result = Ok 2 }))
        | _ -> ())
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec server (Message.Dev_open { minor = 0 }) with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok n }; _ }) ->
            reply := Some (n, Api.now ())
        | _ -> ())
  in
  Engine.run engine;
  Alcotest.(check (option (pair int int)))
    "the asend is the reply, at t=3104" (Some (1, 3104)) !reply

let test_receive_from_filters () =
  let engine, kernel = make_kernel () in
  let order = ref [] in
  (* Receiver waits specifically for B even though A sends first. *)
  let mk_receiver a_ep b_ep =
    spawn kernel "receiver" (fun () ->
        (match Api.receive (Sysif.From b_ep) with
        | Ok (Sysif.Rx_msg { body = Message.Err_reply e; _ }) -> order := ("b", e) :: !order
        | _ -> ());
        match Api.receive (Sysif.From a_ep) with
        | Ok (Sysif.Rx_msg { body = Message.Err_reply e; _ }) -> order := ("a", e) :: !order
        | _ -> ())
  in
  (* Pre-create sender endpoints by spawning them first but have them
     sleep so the receiver installs its filter first. *)
  let a =
    spawn kernel "a" (fun () ->
        Api.sleep 10;
        ignore (Api.send (Option.get (Kernel.find_by_name kernel "receiver")) (Message.Err_reply Errno.E_io)))
  in
  let b =
    spawn kernel "b" (fun () ->
        Api.sleep 50;
        ignore (Api.send (Option.get (Kernel.find_by_name kernel "receiver")) (Message.Err_reply Errno.E_busy)))
  in
  let _r = mk_receiver a b in
  Engine.run engine;
  Alcotest.(check (list (pair string errno)))
    "B served first despite A arriving earlier"
    [ ("a", Errno.E_io); ("b", Errno.E_busy) ]
    !order

let test_notify_queued_and_deduped () =
  let engine, kernel = make_kernel () in
  let notifies = ref 0 in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 1000;
        let rec drain () =
          match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_notify { kind = Message.N_heartbeat_request; _ }) ->
              incr notifies;
              drain ()
          | Ok (Sysif.Rx_msg { body = Message.Ok_reply; _ }) -> () (* stop marker *)
          | _ -> drain ()
        in
        drain ())
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        (* Three notifies of the same kind while target is asleep must
           collapse into one pending notification. *)
        ignore (Api.notify receiver Message.N_heartbeat_request);
        ignore (Api.notify receiver Message.N_heartbeat_request);
        ignore (Api.notify receiver Message.N_heartbeat_request);
        Api.sleep 2000;
        ignore (Api.send receiver Message.Ok_reply))
  in
  Engine.run engine;
  Alcotest.(check int) "notifications deduplicated" 1 !notifies

let test_async_send_does_not_block () =
  let engine, kernel = make_kernel () in
  let t_sent = ref (-1) in
  let got = ref false in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 5000;
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { body = Message.Ok_reply; _ }) -> got := true
        | _ -> ())
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        ignore (Api.asend receiver Message.Ok_reply);
        t_sent := Api.now ())
  in
  Engine.run engine;
  Alcotest.(check bool) "async send returned immediately" true (!t_sent >= 0 && !t_sent < 5000);
  Alcotest.(check bool) "message eventually delivered" true !got

let test_dead_destination () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 100) in
  let _sender =
    spawn kernel "sender" (fun () ->
        Api.sleep 1000 (* victim exits at t=100ish *);
        result := Some (Api.send victim Message.Ok_reply))
  in
  Engine.run engine;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected E_dead_src_dst for send to dead process"

let test_kill_aborts_rendezvous () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  (* The "driver" receives a request and hangs forever; killing it must
     abort the file-server-style sendrec with E_dead_src_dst. *)
  let driver =
    spawn kernel "driver" (fun () ->
        ignore (Api.receive Sysif.Any);
        Api.sleep 1_000_000_000)
  in
  let _fs =
    spawn kernel "fs" (fun () ->
        result := Some (Api.sendrec driver (Message.Dev_read { minor = 0; pos = 0; grant = 0; len = 512 })))
  in
  ignore
    (Engine.schedule engine ~after:5000 (fun () ->
         ignore (Kernel.kill kernel driver (Status.Killed Signal.Sig_kill))));
  Engine.run engine;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected E_dead_src_dst when driver killed mid-sendrec"

let test_stale_endpoint_after_restart () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  Kernel.register_program kernel "drv" (fun () -> Api.sleep 1_000_000_000);
  let first =
    match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:all_priv ~mem_kb:64 with
    | Ok e -> e
    | Error _ -> Alcotest.fail "spawn"
  in
  ignore
    (Engine.schedule engine ~after:100 (fun () ->
         ignore (Kernel.kill kernel first (Status.Killed Signal.Sig_kill));
         (* Restart: same slot may be reused, generation must differ. *)
         match
           Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:all_priv
             ~mem_kb:64
         with
         | Ok second -> Alcotest.(check bool) "endpoint differs" false (Endpoint.equal first second)
         | Error _ -> Alcotest.fail "respawn"));
  let _sender =
    spawn kernel "sender" (fun () ->
        Api.sleep 10_000;
        result := Some (Api.send first Message.Ok_reply))
  in
  Engine.run engine ~until:20_000;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected stale endpoint send to fail with E_dead_src_dst"

let test_grant_safecopy () =
  let engine, kernel = make_kernel () in
  let copied = ref "" in
  let owner =
    spawn kernel "owner" (fun () ->
        let mem = Api.memory () in
        Memory.write mem ~addr:100 (Bytes.of_string "hello grants");
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; body = Message.Dev_read { grant = -1; _ } }) ->
            (* Create the grant on demand and ship its id. *)
            let g =
              match
                Api.grant_create ~for_:src ~base:100 ~len:12 ~access:Sysif.Read_only
              with
              | Ok g -> g
              | Error _ -> Api.panic "grant_create failed"
            in
            ignore (Api.send src (Message.Dev_reply { result = Ok g }))
        | _ -> ())
  in
  let _reader =
    spawn kernel "reader" (fun () ->
        match Api.sendrec owner (Message.Dev_read { minor = 0; pos = 0; grant = -1; len = 12 }) with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) -> (
            match Api.safecopy_from ~owner ~grant:g ~grant_off:0 ~local_addr:0 ~len:12 with
            | Ok () ->
                let mem = Api.memory () in
                copied := Bytes.to_string (Memory.read mem ~addr:0 ~len:12)
            | Error _ -> ())
        | _ -> ())
  in
  Engine.run engine;
  Alcotest.(check string) "safecopy moved the bytes" "hello grants" !copied

let test_grant_wrong_grantee_rejected () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        let other = Endpoint.make ~slot:63 ~gen:9 in
        (match Api.grant_create ~for_:other ~base:0 ~len:16 ~access:Sysif.Read_write with
        | Ok _ -> ()
        | Error _ -> ());
        Api.sleep 10_000)
  in
  let _thief =
    spawn kernel "thief" (fun () ->
        Api.sleep 100;
        (* Grant id 1 exists but names someone else as grantee. *)
        outcome := Some (Api.safecopy_from ~owner ~grant:1 ~grant_off:0 ~local_addr:0 ~len:8))
  in
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for wrong grantee"

let test_grant_bounds_checked () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        (match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) ->
            let g =
              match Api.grant_create ~for_:src ~base:0 ~len:16 ~access:Sysif.Read_write with
              | Ok g -> g
              | Error _ -> Api.panic "grant failed"
            in
            ignore (Api.send src (Message.Dev_reply { result = Ok g }))
        | _ -> ());
        Api.sleep 10_000)
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec owner Message.Ok_reply with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
            outcome := Some (Api.safecopy_from ~owner ~grant:g ~grant_off:8 ~local_addr:0 ~len:16)
        | _ -> ())
  in
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_range) -> ()
  | _ -> Alcotest.fail "expected E_range for out-of-grant copy"

(* Ranges whose end overflows [max_int]: an unchecked [base + len]
   wraps negative and slips past a [> size] test, so a grant at
   [max_int] was accepted and copying through an in-range grant at
   offset [max_int] reached [Bytes.blit] and took the whole engine
   down.  Every layer must refuse them instead. *)
let test_overflowing_ranges_refused () =
  let m = Memory.create ~size:64 in
  let faults f = match f () with _ -> false | exception Memory.Fault _ -> true in
  let probe label =
    Alcotest.(check bool) (label ^ ": read") true
      (faults (fun () -> Memory.read m ~addr:max_int ~len:2));
    Alcotest.(check bool) (label ^ ": write") true
      (faults (fun () -> Memory.write m ~addr:max_int (Bytes.make 2 'x')));
    Alcotest.(check bool) (label ^ ": copy") true
      (faults (fun () -> Memory.copy ~src:m ~src_addr:0 ~dst:m ~dst_addr:max_int ~len:1))
  in
  probe "never written";
  Memory.set_u8 m 0 1;
  probe "written";
  let engine, kernel = make_kernel () in
  let huge_grant = ref None and copy = ref None and handle = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        huge_grant := Some (Api.grant_create ~for_:(Api.self ()) ~base:max_int ~len:1 ~access:Sysif.Read_write);
        (match Api.grant_create ~for_:Wellknown.hardware ~base:0 ~len:16 ~access:Sysif.Read_write with
        | Ok g -> ( match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
        | Error _ -> ());
        (match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) -> (
            match Api.grant_create ~for_:src ~base:0 ~len:16 ~access:Sysif.Read_write with
            | Ok g -> ignore (Api.send src (Message.Dev_reply { result = Ok g }))
            | Error _ -> Api.panic "grant failed")
        | _ -> ());
        Api.sleep 10_000)
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec owner Message.Ok_reply with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
            copy := Some (Api.safecopy_from ~owner ~grant:g ~grant_off:max_int ~local_addr:0 ~len:1)
        | _ -> ())
  in
  let dma = ref None in
  ignore
    (Engine.schedule engine ~after:5_000 (fun () ->
         Option.iter
           (fun h -> dma := Some (Kernel.dma kernel ~handle:h ~off:max_int ~op:(`Read 1)))
           !handle));
  Engine.run engine ~until:20_000;
  let is_range = function Some (Error Errno.E_range) -> true | _ -> false in
  Alcotest.(check bool) "grant at max_int" true (is_range !huge_grant);
  Alcotest.(check bool) "safecopy at grant offset max_int" true (is_range !copy);
  Alcotest.(check bool) "dma at grant offset max_int" true (is_range !dma)

(* Address spaces are allocated on their first write.  Model: three
   spaces (one of size 0) kept as eager zero-filled [Bytes] with a
   bounds test written without [addr + len]; any sequence of every
   [Memory] operation, in and out of range, must give the same results
   and the same faults, whichever spaces have been written so far. *)
type mem_op =
  | M_read of int * int * int
  | M_write of int * int * string
  | M_blit_out of int * int * int
  | M_blit_in of int * int * string
  | M_equal_u64 of int * int * string
  | M_copy of int * int * int * int * int
  | M_get_u8 of int * int
  | M_set_u8 of int * int * int
  | M_get_u32 of int * int
  | M_set_u32 of int * int * int
  | M_fill of int * int * int * char
  | M_view of int * int * int

let mem_sizes = [| 0; 24; 48 |]

let show_mem_op = function
  | M_read (s, a, l) -> Printf.sprintf "read %d @%d len %d" s a l
  | M_write (s, a, d) -> Printf.sprintf "write %d @%d %S" s a d
  | M_blit_out (s, a, l) -> Printf.sprintf "blit_out %d @%d len %d" s a l
  | M_blit_in (s, a, d) -> Printf.sprintf "blit_in %d @%d %S" s a d
  | M_equal_u64 (s, a, k) -> Printf.sprintf "equal_u64 %d @%d %S" s a k
  | M_copy (s, sa, d, da, l) -> Printf.sprintf "copy %d@%d -> %d@%d len %d" s sa d da l
  | M_get_u8 (s, a) -> Printf.sprintf "get_u8 %d @%d" s a
  | M_set_u8 (s, a, v) -> Printf.sprintf "set_u8 %d @%d %d" s a v
  | M_get_u32 (s, a) -> Printf.sprintf "get_u32 %d @%d" s a
  | M_set_u32 (s, a, v) -> Printf.sprintf "set_u32 %d @%d %d" s a v
  | M_fill (s, a, l, c) -> Printf.sprintf "fill %d @%d len %d %C" s a l c
  | M_view (s, a, l) -> Printf.sprintf "view %d @%d len %d" s a l

let gen_mem_op =
  QCheck.Gen.(
    let space = int_bound 2 in
    let addr = frequency [ (8, int_bound 52); (1, return (-1)); (1, return max_int); (1, map (fun k -> max_int - k) (int_bound 8)) ] in
    let len = frequency [ (8, int_bound 16); (1, return (-1)); (1, return max_int) ] in
    let small_len = frequency [ (8, int_bound 16); (1, return (-1)) ] in
    let data = string_size ~gen:(oneofl [ '\000'; 'a'; 'b'; '\255' ]) (int_bound 12) in
    let key = oneof [ return (String.make 8 '\000'); string_size ~gen:(oneofl [ '\000'; 'a' ]) (return 8) ] in
    frequency
      [
        (2, map3 (fun s a l -> M_read (s, a, l)) space addr len);
        (2, map3 (fun s a d -> M_write (s, a, d)) space addr data);
        (1, map3 (fun s a l -> M_blit_out (s, a, l)) space addr small_len);
        (1, map3 (fun s a d -> M_blit_in (s, a, d)) space addr data);
        (1, map3 (fun s a k -> M_equal_u64 (s, a, k)) space addr key);
        ( 2,
          let* s = space and* sa = addr and* d = space and* da = addr and* l = len in
          return (M_copy (s, sa, d, da, l)) );
        (1, map2 (fun s a -> M_get_u8 (s, a)) space addr);
        (1, map3 (fun s a v -> M_set_u8 (s, a, v)) space addr int);
        (1, map2 (fun s a -> M_get_u32 (s, a)) space addr);
        (1, map3 (fun s a v -> M_set_u32 (s, a, v)) space addr int);
        ( 1,
          let* s = space and* a = addr and* l = len and* c = oneofl [ '\000'; 'f' ] in
          return (M_fill (s, a, l, c)) );
        (1, map3 (fun s a l -> M_view (s, a, l)) space addr len);
      ])

(* One operation on the eager reference: [None] is a fault. *)
let model_mem_op (spaces : Bytes.t array) op =
  let in_range s addr len =
    let size = Bytes.length spaces.(s) in
    addr >= 0 && len >= 0 && addr <= size && len <= size - addr
  in
  let guard s addr len f = if in_range s addr len then Some (f spaces.(s)) else None in
  match op with
  | M_read (s, a, l) -> guard s a l (fun b -> Bytes.sub_string b a l)
  | M_write (s, a, d) ->
      guard s a (String.length d) (fun b -> Bytes.blit_string d 0 b a (String.length d); "")
  | M_blit_out (s, a, l) ->
      guard s a l (fun b ->
          let dst = Bytes.make (l + 2) '#' in
          Bytes.blit b a dst 1 l;
          Bytes.to_string dst)
  | M_blit_in (s, a, d) ->
      guard s a (String.length d) (fun b -> Bytes.blit_string d 0 b a (String.length d); "")
  | M_equal_u64 (s, a, k) -> guard s a 8 (fun b -> string_of_bool (Bytes.sub_string b a 8 = k))
  | M_copy (s, sa, d, da, l) ->
      if in_range s sa l && in_range d da l then begin
        Bytes.blit spaces.(s) sa spaces.(d) da l;
        Some ""
      end
      else None
  | M_get_u8 (s, a) -> guard s a 1 (fun b -> string_of_int (Char.code (Bytes.get b a)))
  | M_set_u8 (s, a, v) -> guard s a 1 (fun b -> Bytes.set b a (Char.chr (v land 0xFF)); "")
  | M_get_u32 (s, a) ->
      guard s a 4 (fun b -> string_of_int (Int32.to_int (Bytes.get_int32_le b a) land 0xFFFFFFFF))
  | M_set_u32 (s, a, v) -> guard s a 4 (fun b -> Bytes.set_int32_le b a (Int32.of_int v); "")
  | M_fill (s, a, l, c) -> guard s a l (fun b -> Bytes.fill b a l c; "")
  | M_view (s, a, l) -> guard s a l (fun b -> Bytes.sub_string b a l)

let real_mem_op (spaces : Memory.t array) op =
  try
    Some
      (match op with
      | M_read (s, a, l) -> Bytes.to_string (Memory.read spaces.(s) ~addr:a ~len:l)
      | M_write (s, a, d) -> Memory.write spaces.(s) ~addr:a (Bytes.of_string d); ""
      | M_blit_out (s, a, l) ->
          let dst = Bytes.make (max 0 l + 2) '#' in
          Memory.blit_out spaces.(s) ~addr:a ~dst ~dst_off:1 ~len:l;
          Bytes.to_string dst
      | M_blit_in (s, a, d) ->
          let src = Bytes.of_string ("<" ^ d ^ ">") in
          Memory.blit_in spaces.(s) ~addr:a ~src ~src_off:1 ~len:(String.length d);
          ""
      | M_equal_u64 (s, a, k) ->
          let key = Bytes.of_string ("..." ^ k) in
          Memory.check spaces.(s) ~addr:a ~len:8;
          string_of_bool (Memory.equal_u64_unchecked spaces.(s) ~addr:a key ~off:3)
      | M_copy (s, sa, d, da, l) ->
          Memory.copy ~src:spaces.(s) ~src_addr:sa ~dst:spaces.(d) ~dst_addr:da ~len:l;
          ""
      | M_get_u8 (s, a) -> string_of_int (Memory.get_u8 spaces.(s) a)
      | M_set_u8 (s, a, v) -> Memory.set_u8 spaces.(s) a v; ""
      | M_get_u32 (s, a) -> string_of_int (Memory.get_u32 spaces.(s) a)
      | M_set_u32 (s, a, v) -> Memory.set_u32 spaces.(s) a v; ""
      | M_fill (s, a, l, c) -> Memory.fill spaces.(s) ~addr:a ~len:l (fun b pos len -> Bytes.fill b pos len c); ""
      | M_view (s, a, l) -> Memory.view spaces.(s) ~addr:a ~len:l (fun b pos -> Bytes.sub_string b pos l))
  with Memory.Fault _ -> None

let prop_memory_matches_eager_model =
  QCheck.Test.make ~name:"lazy address spaces = eager reference" ~count:1000
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_bound 30) gen_mem_op))
    (fun ops ->
      let model = Array.map (fun size -> Bytes.make size '\000') mem_sizes in
      let real = Array.map (fun size -> Memory.create ~size) mem_sizes in
      List.for_all (fun op -> model_mem_op model op = real_mem_op real op) ops
      && Array.for_all2
           (fun m r -> Bytes.equal m (Memory.read r ~addr:0 ~len:(Memory.size r)))
           model real)

(* [fill] and [view] check their range before the callback runs, with
   the MMU's [Fault] and never [Invalid_argument], whether or not the
   space has bytes yet. *)
let test_memory_fill_view_fault () =
  let written = Memory.create ~size:64 in
  Memory.write written ~addr:0 (Bytes.make 64 'w');
  let ran = ref false in
  let fill _ _ _ = ran := true and view _ _ = ran := true in
  List.iter
    (fun (mem, state) ->
      List.iter
        (fun (addr, len) ->
          let name what = Printf.sprintf "%s %s @%d len %d" state what addr len in
          let faults what g =
            match g () with
            | () -> Alcotest.fail (name what ^ ": no fault")
            | exception Memory.Fault _ -> Alcotest.(check bool) (name what ^ ": callback ran") false !ran
          in
          faults "fill" (fun () -> Memory.fill mem ~addr ~len fill);
          faults "view" (fun () -> Memory.view mem ~addr ~len view))
        [ (0, max_int); (1, max_int); (max_int, 1); (max_int, max_int); (-1, 1); (0, -1); (0, 65) ])
    [ (Memory.create ~size:64, "never written"); (written, "written") ]

(* Both DMA directions are refused by the same checks (a stale handle
   or a dead owner, an out-of-grant range, overflowing offsets and
   lengths), and a fill's producer runs only once every check has
   passed, with the checked length. *)
let test_dma_refusals () =
  let engine, kernel = make_kernel () in
  let mapped = ref None and revoked = ref None in
  let map ~base ~len =
    match Api.grant_create ~for_:Wellknown.hardware ~base ~len ~access:Sysif.Read_write with
    | Ok g -> ( match Api.iommu_map g with Ok h -> Some (g, h) | Error _ -> None)
    | Error _ -> None
  in
  let owner =
    spawn kernel "drv" (fun () ->
        mapped := Option.map snd (map ~base:0x200 ~len:64);
        (match map ~base:0x300 ~len:16 with
        | Some (g, h) ->
            ignore (Api.grant_revoke g);
            revoked := Some h
        | None -> ());
        Api.sleep 1_000_000_000)
  in
  Engine.run engine ~until:10_000;
  let get = function Some h -> h | None -> Alcotest.fail "no DMA handle" in
  let h = get !mapped and stale_grant = get !revoked in
  let ran = ref 0 in
  let fill len =
    `Fill
      ( len,
        fun b pos n ->
          incr ran;
          Bytes.fill b pos n 'f' )
  in
  let result = Alcotest.(result unit errno) in
  let refused name ~handle ~off ~len expected =
    let got op = Result.map ignore (Kernel.dma kernel ~handle ~off ~op) in
    Alcotest.check result (name ^ ": read") (Error expected) (got (`Read len));
    Alcotest.check result (name ^ ": fill") (Error expected) (got (fill len));
    Alcotest.(check int) (name ^ ": producer never ran") 0 !ran
  in
  refused "unknown handle" ~handle:(h + 1000) ~off:0 ~len:8 Errno.E_no_perm;
  refused "revoked grant" ~handle:stale_grant ~off:0 ~len:8 Errno.E_no_perm;
  refused "past the grant" ~handle:h ~off:8 ~len:64 Errno.E_range;
  refused "offset max_int" ~handle:h ~off:max_int ~len:1 Errno.E_range;
  refused "negative offset" ~handle:h ~off:(-1) ~len:8 Errno.E_range;
  refused "length max_int" ~handle:h ~off:0 ~len:max_int Errno.E_range;
  refused "negative length" ~handle:h ~off:0 ~len:(-1) Errno.E_range;
  Alcotest.check result "in range" (Ok ())
    (Result.map ignore (Kernel.dma kernel ~handle:h ~off:8 ~op:(fill 56)));
  Alcotest.(check int) "producer ran once" 1 !ran;
  ran := 0;
  (match Kernel.proc_memory kernel owner with
  | None -> Alcotest.fail "owner died"
  | Some mem ->
      Alcotest.(check string) "filled in place, neighbours kept"
        (String.make 9 '\000' ^ String.make 56 'f' ^ "\000")
        (Bytes.to_string (Memory.read mem ~addr:0x1FF ~len:66)));
  ignore (Kernel.kill kernel owner (Status.Killed Signal.Sig_kill));
  refused "dead owner" ~handle:h ~off:0 ~len:8 Errno.E_no_perm

let test_ipc_privilege_enforced () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let target = spawn kernel "target" (fun () -> ignore (Api.receive Sysif.Any)) in
  Kernel.register_program kernel "restricted" (fun () ->
      outcome := Some (Api.send target Message.Ok_reply));
  let priv = { Privilege.none with Privilege.ipc_to = Privilege.Only [ "somebody-else" ] } in
  (match
     Kernel.spawn_dynamic kernel ~name:"restricted" ~program:"restricted" ~args:[] ~priv ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:10_000;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for disallowed IPC destination"

let test_kcall_privilege_enforced () =
  let engine, kernel = make_kernel () in
  (* A bus, so that only the kernel's privilege checks refuse the read. *)
  Kernel.set_bus kernel ~read:Fun.id ~write:(fun _ _ -> ());
  let outcome = ref None in
  Kernel.register_program kernel "noio" (fun () ->
      outcome := Some (port_in (Api.ports ()) 0x300));
  let priv =
    { Privilege.none with Privilege.ipc_to = Privilege.All; kcalls = Privilege.Only [ "alarm" ] }
  in
  (match Kernel.spawn_dynamic kernel ~name:"noio" ~program:"noio" ~args:[] ~priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for denied kernel call"

let test_io_port_privilege () =
  let engine, kernel = make_kernel () in
  Kernel.set_bus kernel ~read:(fun _ -> 0xAB) ~write:(fun _ _ -> ());
  let in_range = ref None and out_of_range = ref None in
  Kernel.register_program kernel "drv" (fun () ->
      let ports = Api.ports () in
      in_range := Some (port_in ports 0x300);
      out_of_range := Some (port_in ports 0x400));
  let priv =
    {
      Privilege.none with
      Privilege.ipc_to = Privilege.All;
      kcalls = Privilege.All;
      io_ports = [ (0x300, 0x30F) ];
    }
  in
  (match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  (match !in_range with
  | Some (Ok 0xAB) -> ()
  | _ -> Alcotest.fail "allowed port read should succeed");
  match !out_of_range with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "port outside the privileged range must be denied"

let test_mmu_fault_kills () =
  let engine, kernel = make_kernel () in
  let _victim =
    spawn kernel "victim" (fun () ->
        let mem = Api.memory () in
        (* Dereference a wild pointer: instant SIGSEGV. *)
        ignore (Memory.get_u32 mem 99_999_999))
  in
  (* PM would normally reap this; check via trace + liveness. *)
  Engine.run engine;
  Alcotest.(check bool) "victim is dead" true (Kernel.find_by_name kernel "victim" = None);
  let trace = Kernel.trace kernel in
  Alcotest.(check bool)
    "killed by SIGSEGV recorded" true
    (Trace.query trace ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit { name = "victim"; status = Status.Killed Signal.Sig_segv; _ }
           -> true
         | _ -> false)
    <> [])

let test_exit_status_panic () =
  let engine, kernel = make_kernel () in
  let _p = spawn kernel "panicky" (fun () -> Api.panic "inconsistent state") in
  Engine.run engine;
  let trace = Kernel.trace kernel in
  Alcotest.(check bool)
    "panic recorded" true
    (Trace.query trace ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit { status = Status.Panicked "inconsistent state"; _ } -> true
         | _ -> false)
    <> [])

let test_alarm_notification () =
  let engine, kernel = make_kernel () in
  let fired_at = ref 0 in
  let _p =
    spawn kernel "sleeper" (fun () ->
        ignore (Api.alarm 5000);
        match Api.receive (Sysif.From Wellknown.hardware) with
        | Ok (Sysif.Rx_notify { kind = Message.N_alarm; _ }) -> fired_at := Api.now ()
        | _ -> ())
  in
  Engine.run engine;
  (* The process only starts after the spawn cost, so just require the
     alarm to have fired a full period after that. *)
  Alcotest.(check bool)
    (Printf.sprintf "alarm after ~5000 (got %d)" !fired_at)
    true
    (!fired_at >= 5000 && !fired_at < 20_000)

let test_irq_routing () =
  let engine, kernel = make_kernel () in
  let got_irq = ref None in
  let _drv =
    spawn kernel "drv" (fun () ->
        ignore (Api.irq_register 11);
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_notify { kind = Message.N_irq line; _ }) -> got_irq := Some line
        | _ -> ())
  in
  (* Raise the line well after the driver had time to register. *)
  ignore (Engine.schedule engine ~after:10_000 (fun () -> Kernel.raise_irq kernel 11));
  Engine.run engine;
  Alcotest.(check (option int)) "IRQ 11 delivered" (Some 11) !got_irq

let test_dma_through_iommu () =
  let engine, kernel = make_kernel () in
  let handle = ref None in
  let _drv =
    spawn kernel "drv" (fun () ->
        let mem = Api.memory () in
        Memory.write mem ~addr:0x200 (Bytes.of_string "dma payload!");
        (match Api.grant_create ~for_:Wellknown.hardware ~base:0x200 ~len:12 ~access:Sysif.Read_write with
        | Ok g -> (
            match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
        | Error _ -> ());
        Api.sleep 100_000)
  in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         match !handle with
         | Some h -> (
             (match Kernel.dma kernel ~handle:h ~off:0 ~op:(`Read 12) with
             | Ok b -> Alcotest.(check string) "device reads driver memory" "dma payload!" (Bytes.to_string b)
             | Error _ -> Alcotest.fail "dma read failed");
             (* Out-of-grant access must be rejected. *)
             match Kernel.dma kernel ~handle:h ~off:8 ~op:(`Read 12) with
             | Error Errno.E_range -> ()
             | _ -> Alcotest.fail "expected E_range for out-of-grant DMA")
         | None -> Alcotest.fail "no dma handle"));
  Engine.run engine ~until:50_000

let test_dma_stale_after_death () =
  let engine, kernel = make_kernel () in
  let handle = ref None in
  let victim =
    spawn kernel "drv" (fun () ->
        (match Api.grant_create ~for_:Wellknown.hardware ~base:0 ~len:64 ~access:Sysif.Read_write with
        | Ok g -> ( match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
        | Error _ -> ());
        Api.sleep 1_000_000_000)
  in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill))));
  ignore
    (Engine.schedule engine ~after:20_000 (fun () ->
         match !handle with
         | Some h -> (
             match Kernel.dma kernel ~handle:h ~off:0 ~op:(`Read 8) with
             | Error Errno.E_no_perm -> ()
             | _ -> Alcotest.fail "DMA must fail after the owning driver died")
         | None -> Alcotest.fail "no dma handle"));
  Engine.run engine ~until:30_000

let test_sendrec_to_self_rejected () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  Kernel.register_program kernel "selfish" (fun () ->
      let self = Api.self () in
      outcome := Some (Api.sendrec self Message.Ok_reply));
  (match
     Kernel.spawn_dynamic kernel ~name:"selfish" ~program:"selfish" ~args:[] ~priv:all_priv
       ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_inval) -> ()
  | _ -> Alcotest.fail "sendrec to self must fail"

let test_receive_from_dead_source_fails () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let short_lived = spawn kernel "short" (fun () -> ()) in
  let _waiter =
    spawn kernel "waiter" (fun () ->
        Api.sleep 1000;
        outcome := Some (Api.receive (Sysif.From short_lived)))
  in
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "receive from a dead endpoint must fail immediately"

let test_receive_aborted_when_source_dies () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 1_000_000_000) in
  let _waiter = spawn kernel "waiter" (fun () -> outcome := Some (Api.receive (Sysif.From victim))) in
  ignore
    (Engine.schedule engine ~after:5000 (fun () ->
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill))));
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "pending receive must abort when its source dies"

let test_sigterm_is_notification () =
  let engine, kernel = make_kernel () in
  let got_term = ref false in
  let victim =
    spawn kernel "victim" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_notify { kind = Message.N_sig Signal.Sig_term; _ }) -> got_term := true
        | _ -> ())
  in
  ignore
    (Engine.schedule engine ~after:100 (fun () ->
         ignore (Kernel.deliver_signal kernel victim Signal.Sig_term)));
  Engine.run engine;
  Alcotest.(check bool) "SIGTERM delivered as notification" true !got_term;
  Alcotest.(check bool) "victim exited gracefully" true (Kernel.find_by_name kernel "victim" = None)

(* An external kill (what System.kill_service_once does) counts once
   in kernel.proc.kills. *)
let test_external_kill_counted_once () =
  let engine, kernel = make_kernel () in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 1_000_000) in
  let kills = Metrics.counter (Kernel.metrics kernel) "kernel.proc.kills" in
  ignore
    (Engine.schedule engine ~after:100 (fun () ->
         let before = Metrics.value kills in
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill));
         Alcotest.(check int) "one kill counted" 1 (Metrics.value kills - before)));
  Engine.run engine;
  Alcotest.(check bool) "victim is gone" true (Kernel.find_by_name kernel "victim" = None)

(* Api.call: the expected reply gives its result, any other reply is
   E_io, and an IPC error passes through unchanged. *)
let test_api_call () =
  let engine, kernel = make_kernel () in
  let server =
    spawn kernel "server" (fun () ->
        List.iter
          (fun reply ->
            match Api.receive Sysif.Any with
            | Ok (Sysif.Rx_msg { src; _ }) -> ignore (Api.send src reply)
            | _ -> ())
          [ Message.Vfs_io_reply { result = Ok 7 }; Message.Ok_reply ])
  in
  let results = ref [] in
  let _client =
    spawn kernel "client" (fun () ->
        let io_reply = function Message.Vfs_io_reply { result } -> Some result | _ -> None in
        for _ = 1 to 3 do
          results := Api.call server (Message.Vfs_close { fd = 3 }) io_reply :: !results
        done)
  in
  Engine.run engine;
  Alcotest.(check (list (result int errno)))
    "right reply, wrong reply, dead server"
    [ Ok 7; Error Errno.E_io; Error Errno.E_dead_src_dst ]
    (List.rev !results)

(* Api.with_grant: the grant is live inside [f] and revoked after it,
   also when [f] returns an error. *)
let test_with_grant_revokes () =
  let engine, kernel = make_kernel () in
  let copies = ref [] in
  let peer =
    spawn kernel "peer" (fun () ->
        for _ = 1 to 2 do
          match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_msg { src; body = Message.Dev_read { grant; len; _ } }) ->
              copies := Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:0 ~len :: !copies;
              ignore (Api.send src Message.Ok_reply)
          | _ -> ()
        done)
  in
  let result = ref None in
  let _owner =
    spawn kernel "owner" (fun () ->
        let lend grant =
          ignore (Api.sendrec peer (Message.Dev_read { minor = 0; pos = 0; grant; len = 8 }))
        in
        let kept = ref (-1) in
        result :=
          Some
            (Api.with_grant ~for_:peer ~base:0 ~len:8 ~access:Sysif.Read_only (fun g ->
                 kept := g;
                 lend g;
                 (Error Errno.E_busy : (unit, Errno.t) result)));
        lend !kept)
  in
  Engine.run engine;
  Alcotest.(check (option (result unit errno))) "f's error returned" (Some (Error Errno.E_busy)) !result;
  Alcotest.(check (list (result unit errno)))
    "live inside f, revoked after" [ Ok (); Error Errno.E_no_perm ] (List.rev !copies)

let test_exit_queue_for_pm () =
  (* The exit queue + SIGCHLD path is exercised through the PM in the
     server tests; here just check the kernel records exits. *)
  let engine, kernel = make_kernel () in
  let _p = spawn kernel "transient" (fun () -> Api.exit (Status.Exited 3)) in
  let exits = Metrics.counter (Kernel.metrics kernel) "kernel.proc.exits" in
  let before = Metrics.value exits in
  Engine.run engine;
  Alcotest.(check int) "one exit recorded" 1 (Metrics.value exits - before)

let prop_many_processes_all_messages_delivered =
  QCheck.Test.make ~name:"N senders, one receiver: all delivered exactly once" ~count:30
    QCheck.(int_range 1 20)
    (fun n ->
      let engine, kernel = make_kernel () in
      let received = Hashtbl.create 16 in
      let receiver =
        spawn kernel "receiver" (fun () ->
            for _ = 1 to n do
              match Api.receive Sysif.Any with
              | Ok (Sysif.Rx_msg { body = Message.Dev_open { minor }; _ }) ->
                  Hashtbl.replace received minor (1 + Option.value ~default:0 (Hashtbl.find_opt received minor))
              | _ -> ()
            done)
      in
      for i = 1 to n do
        ignore
          (spawn kernel (Printf.sprintf "sender%d" i) (fun () ->
               ignore (Api.send receiver (Message.Dev_open { minor = i }))))
      done;
      Engine.run engine;
      List.for_all
        (fun i -> Hashtbl.find_opt received i = Some 1)
        (List.init n (fun i -> i + 1)))

(* Property: safecopy succeeds exactly on in-grant, in-memory ranges. *)
let prop_grant_bounds =
  QCheck.Test.make ~name:"safecopy honours grant bounds exactly" ~count:40
    QCheck.(quad (int_bound 2000) (int_bound 2000) (int_bound 2000) (int_bound 2000))
    (fun (base, len, off, n) ->
      let engine, kernel = make_kernel () in
      let outcome = ref None in
      let owner =
        spawn kernel "owner" (fun () ->
            (match Api.receive Sysif.Any with
            | Ok (Sysif.Rx_msg { src; _ }) -> (
                match Api.grant_create ~for_:src ~base ~len ~access:Sysif.Read_write with
                | Ok g -> ignore (Api.send src (Message.Dev_reply { result = Ok g }))
                | Error _ -> ignore (Api.send src (Message.Dev_reply { result = Error Errno.E_nomem })))
            | _ -> ());
            Api.sleep 1_000_000_000)
      in
      ignore
        (spawn kernel "copier" (fun () ->
             match Api.sendrec owner Message.Ok_reply with
             | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
                 outcome :=
                   Some (Api.safecopy_from ~owner ~grant:g ~grant_off:off ~local_addr:0 ~len:n)
             | _ -> outcome := Some (Error Errno.E_nomem)));
      Engine.run engine ~until:10_000_000;
      let mem_bytes = 64 * 1024 in
      let grant_creatable = base + len <= mem_bytes in
      let in_grant = off + n <= len in
      match !outcome with
      | Some (Ok ()) -> grant_creatable && in_grant
      | Some (Error Errno.E_range) -> grant_creatable && not in_grant
      | Some (Error Errno.E_nomem) -> not grant_creatable
      | _ -> false)

(* --- kernel-call gate --- *)

(* Reference gate: the name each kernel call is checked under, looked
   up in the whitelist per call.  The bitmask must agree with it. *)
let reference_kcall_name : type a. a Sysif.syscall -> string option = function
  | Sysif.Safecopy _ -> Some "safecopy"
  | Sysif.Grant_create _ -> Some "grant_create"
  | Sysif.Grant_revoke _ -> Some "grant_revoke"
  | Sysif.Irq_register _ -> Some "irqctl"
  | Sysif.Alarm _ -> Some "alarm"
  | Sysif.Iommu_map _ | Sysif.Iommu_unmap _ -> Some "iommu_map"
  | Sysif.Proc_create _ -> Some "proc_create"
  | Sysif.Proc_kill _ -> Some "proc_kill"
  | Sysif.Reap_exit -> Some "reap_exit"
  | Sysif.Privctl _ -> Some "privctl"
  | Sysif.Send _ | Sysif.Asend _ | Sysif.Receive _ | Sysif.Sendrec _ | Sysif.Notify _
  | Sysif.Sleep _ | Sysif.Yield _ | Sysif.Now | Sysif.Self | Sysif.My_memory | Sysif.My_ports
  | Sysif.My_args | Sysif.My_name | Sysif.Random _ | Sysif.Exit _ | Sysif.Obs_emit _
  | Sysif.Metric_add _ | Sysif.Metric_counter _ | Sysif.Metric_gauge _ ->
      None

let reference_allows kcalls op =
  match reference_kcall_name op with None -> true | Some name -> Privilege.allows kcalls name

type any_syscall = Any_syscall : 'a Sysif.syscall -> any_syscall

(* One value of every syscall constructor. *)
let every_syscall =
  let e = ep 7 in
  Sysif.
    [
      Any_syscall (Send (e, Message.Ok_reply));
      Any_syscall (Asend (e, Message.Ok_reply));
      Any_syscall (Receive Any);
      Any_syscall (Sendrec (e, Message.Ok_reply));
      Any_syscall (Notify (e, Message.N_alarm));
      Any_syscall (Sleep 1);
      Any_syscall (Yield 1);
      Any_syscall Now;
      Any_syscall Self;
      Any_syscall My_memory;
      Any_syscall My_ports;
      Any_syscall My_args;
      Any_syscall My_name;
      Any_syscall (Random 2);
      Any_syscall (Exit (Status.Exited 0));
      Any_syscall (Obs_emit (Trace.Info, "t", Resilix_obs.Event.Log { text = "x" }));
      Any_syscall (Metric_add ("m", 1));
      Any_syscall (Metric_counter "m");
      Any_syscall (Metric_gauge "m");
      Any_syscall
        (Safecopy { dir = `Read; owner = e; grant = 1; grant_off = 0; local_addr = 0; len = 1 });
      Any_syscall (Grant_create { for_ = e; base = 0; len = 1; access = Read_only });
      Any_syscall (Grant_revoke 1);
      Any_syscall (Irq_register 5);
      Any_syscall (Alarm 1);
      Any_syscall (Iommu_map 1);
      Any_syscall (Iommu_unmap 1);
      Any_syscall
        (Proc_create { name = "p"; program = "p"; args = []; priv = Privilege.none; mem_kb = 1 });
      Any_syscall (Proc_kill (e, Signal.Sig_kill));
      Any_syscall Reap_exit;
      Any_syscall (Privctl (e, Privilege.none));
    ]

(* "devio" gates the port handle's accesses, which are no syscall. *)
let kcall_names_in_use =
  List.sort_uniq compare
    ("devio" :: List.filter_map (fun (Any_syscall op) -> reference_kcall_name op) every_syscall)

(* Whitelists mixing real kernel-call names with names the kernel does
   not know (e.g. the servers' "times"). *)
let gen_allow =
  let open QCheck.Gen in
  let name =
    oneof [ oneofl kcall_names_in_use; oneofl [ "times"; "proc_kill_request"; ""; "DEVIO" ] ]
  in
  frequency
    [ (1, return Privilege.All); (6, map (fun l -> Privilege.Only l) (list_size (0 -- 12) name)) ]

let arb_allow = QCheck.make ~print:Privilege.show_allow gen_allow

let prop_kcall_mask_matches_whitelist =
  QCheck.Test.make ~name:"kcall bitmask decides like the whitelist" ~count:300 arb_allow
    (fun kcalls ->
      let mask = Sysif.kcall_mask kcalls in
      Sysif.devio_allowed mask = Privilege.allows kcalls "devio"
      && List.for_all
           (fun (Any_syscall op) -> Sysif.kcall_allowed mask op = reference_allows kcalls op)
           every_syscall)

(* Kernel calls whose result is [E_no_perm] exactly when the gate
   denies them, each paired with its reference name. *)
let gate_probes =
  let bogus = Endpoint.make ~slot:1000 ~gen:1 in
  let denied = function Error Errno.E_no_perm -> true | Error _ | Ok _ -> false in
  [
    ( "safecopy",
      fun () ->
        denied (Api.safecopy_from ~owner:bogus ~grant:1 ~grant_off:0 ~local_addr:0 ~len:1) );
    ( "grant_create",
      fun () ->
        denied (Api.grant_create ~for_:(Api.self ()) ~base:0 ~len:0 ~access:Sysif.Read_only) );
    ("grant_revoke", fun () -> denied (Api.grant_revoke 12345));
    ("devio", fun () -> denied (port_in (Api.ports ()) 0x300));
    ("irqctl", fun () -> denied (Api.irq_register 5));
    ("alarm", fun () -> denied (Api.alarm 0));
    ("iommu_map", fun () -> denied (Api.iommu_unmap 12345));
    ( "proc_create",
      fun () ->
        denied
          (Api.proc_create ~name:"x" ~program:"no-such-program" ~args:[] ~priv:Privilege.none
             ~mem_kb:1) );
    ("proc_kill", fun () -> denied (Api.proc_kill bogus Signal.Sig_kill));
    ("privctl", fun () -> denied (Api.privctl bogus Privilege.none));
  ]

let prop_privctl_updates_gate =
  QCheck.Test.make ~name:"after privctl, kernel calls follow the new privilege" ~count:30
    (QCheck.pair arb_allow arb_allow)
    (fun (before, after) ->
      let engine, kernel = make_kernel () in
      (* A bus, so that only the gate refuses the "devio" probe. *)
      Kernel.set_bus kernel ~read:Fun.id ~write:(fun _ _ -> ());
      let priv kcalls = { all_priv with Privilege.kcalls } in
      let probe () = List.map (fun (_, denied) -> denied ()) gate_probes in
      let seen_before = ref [] and seen_after = ref [] in
      Kernel.register_program kernel "subject" (fun () ->
          seen_before := probe ();
          Api.sleep 100_000;
          seen_after := probe ());
      let subject =
        match
          Kernel.spawn_dynamic kernel ~name:"subject" ~program:"subject" ~args:[]
            ~priv:(priv before) ~mem_kb:64
        with
        | Ok e -> e
        | Error _ -> Alcotest.fail "spawn"
      in
      ignore
        (spawn kernel "admin" (fun () ->
             Api.sleep 50_000;
             match Api.privctl subject (priv after) with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "privctl"));
      Engine.run engine;
      let expect kcalls =
        List.map (fun (name, _) -> not (Privilege.allows kcalls name)) gate_probes
      in
      !seen_before = expect before && !seen_after = expect after)

(* ------------------------------------------------------------------ *)
(* Syscall returns without an engine event                             *)
(* ------------------------------------------------------------------ *)

let test_yield_negative_cost () =
  let engine, kernel = make_kernel () in
  let elapsed = ref (-1) in
  let _p =
    spawn kernel "yielder" (fun () ->
        let t0 = Api.now () in
        Api.yield ~cost:(-5) ();
        elapsed := Api.now () - t0)
  in
  Engine.run engine;
  Alcotest.(check int) "a negative cost is clamped to zero" 0 !elapsed

let test_safecopy_negative_len () =
  let engine, kernel = make_kernel () in
  let result = ref None and elapsed = ref (-1) in
  let _p =
    spawn kernel "copier" (fun () ->
        let t0 = Api.now () in
        result :=
          Some
            (Api.safecopy_from ~owner:(Api.self ()) ~grant:0 ~grant_off:0 ~local_addr:0
               ~len:(-10_000));
        elapsed := Api.now () - t0)
  in
  Engine.run engine;
  Alcotest.(check (option (result unit errno)))
    "negative length rejected" (Some (Error Errno.E_range)) !result;
  Alcotest.(check int) "charged the base copy cost" Kernel.default_costs.Kernel.copy_base !elapsed

(* A kernel running three processes whose syscall returns are mostly
   each other's only competition: two mix back-to-back yields with port
   reads and writes, one sleeps in between, and all three start at the
   same instant.  With [~crowd:false] only the first runs, so nearly
   every return inlines.  Every return is logged as (process, call,
   time). *)
let burst_kernel ?policy ?(crowd = true) () =
  let engine = Engine.create ?policy () in
  let kernel = Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:1) () in
  Kernel.set_bus kernel ~read:Fun.id ~write:(fun _ _ -> ());
  let log = ref [] in
  let worker name ops =
    ignore
      (spawn kernel name (fun () ->
           let ports = Api.ports () in
           List.iteri
             (fun i op ->
               (match op with
               | `Yield c -> Api.yield ~cost:c ()
               | `In p -> ignore (port_in ports p)
               | `Out p -> ignore (port_out ports p 1)
               | `Sleep d -> Api.sleep d);
               log := (name, i, Api.now ()) :: !log)
             ops))
  in
  let words n = List.concat (List.init n (fun i -> [ `In (0x300 + (i mod 4)); `Out 0x304 ])) in
  worker "a" (List.concat [ List.init 40 (fun i -> `Yield (1 + (i mod 3))); words 30 ]);
  if crowd then begin
    worker "b" (List.concat [ words 20; List.init 30 (fun _ -> `Yield 1); words 10 ]);
    worker "c" (List.init 12 (fun i -> if i mod 2 = 0 then `Sleep 7 else `Yield 2))
  end;
  (engine, kernel, log)

let log_checksum =
  List.fold_left
    (fun acc (name, i, at) -> ((acc * 31) + Hashtbl.hash name + (i * 7) + at) land 0xFFFFFFF)
    0

(* The workers start once their spawn cost has elapsed. *)
let burst_start = Kernel.default_costs.Kernel.spawn

let burst_state (engine, _, log) = (Engine.now engine, Engine.pending engine, List.rev !log)

let burst_state_t =
  Alcotest.(triple int int (list (triple string int int)))

let test_inline_path_taken () =
  let ((engine, _, _) as b) = burst_kernel () in
  Engine.run engine;
  let inlined, queued = Engine.inline_counts engine in
  let _, _, log = burst_state b in
  Alcotest.(check int) "every call returned" (100 + 90 + 12) (List.length log);
  (* The equivalence tests below lean on this workload taking both
     paths. *)
  Alcotest.(check bool)
    (Printf.sprintf "both paths taken (%d inlined, %d queued)" inlined queued)
    true
    (inlined > 0 && inlined < List.length log)

let prop_max_events_matches_steps =
  QCheck.Test.make ~name:"run ~max_events:m = m bare steps" ~count:60
    QCheck.(int_range 0 260)
    (fun m ->
      let ((e1, _, _) as run) = burst_kernel () in
      Engine.run e1 ~max_events:m;
      let ((e2, _, _) as stepped) = burst_kernel () in
      for _ = 1 to m do
        ignore (Engine.step e2)
      done;
      burst_state run = burst_state stepped)

(* How many bare steps leave the clock at or before [stop]. *)
let steps_within stop =
  let engine, _, _ = burst_kernel () in
  let rec count n = if Engine.step engine && Engine.now engine <= stop then count (n + 1) else n in
  count 0

let prop_until_never_overshoots =
  QCheck.Test.make ~name:"run ~until:T stops at T, as stepping does" ~count:60
    QCheck.(int_range (burst_start - 10) (burst_start + 310))
    (fun stop ->
      let ((e1, _, log) as run) = burst_kernel () in
      Engine.run e1 ~until:stop;
      let ((e2, _, _) as stepped) = burst_kernel () in
      for _ = 1 to steps_within stop do
        ignore (Engine.step e2)
      done;
      let clock, pending, entries = burst_state run and _, pending', entries' = burst_state stepped in
      clock = stop
      && List.for_all (fun (_, _, at) -> at <= stop) !log
      && pending = pending' && entries = entries')

(* [Engine.run_until] against the loop it replaces, one bare step at a
   time, with the stop predicate or the deadline landing mid-burst. *)
let step_until engine ~deadline pred =
  let rec loop () =
    if pred () then true
    else if Engine.now engine >= deadline then false
    else if Engine.step engine then loop ()
    else pred ()
  in
  loop ()

let test_run_until_mid_burst () =
  List.iter
    (fun (crowd, returns, deadline) ->
      let outcome drive =
        let ((engine, _, log) as b) = burst_kernel ~crowd () in
        let pred () = List.length !log >= returns in
        let ok = drive engine ~deadline pred in
        (ok, burst_state b)
      in
      let ok, state = outcome (fun e ~deadline p -> Engine.run_until e ~deadline p) in
      let ok', state' = outcome step_until in
      let label = Printf.sprintf "crowd %b, %d returns or t=%d" crowd returns deadline in
      Alcotest.(check bool) (label ^ ": outcome") ok' ok;
      Alcotest.check burst_state_t (label ^ ": state") state' state)
    [
      (true, 1, max_int);
      (true, 57, max_int);
      (true, 150, max_int);
      (true, 1000, max_int);
      (true, 1000, burst_start + 45);
      (true, 1000, burst_start + 131);
      (false, 33, max_int);
      (false, 1000, burst_start + 45);
      (false, 1000, burst_start + 131);
    ]

let test_self_kill_then_inline_return () =
  let engine, kernel = make_kernel () in
  let after_kill = ref false and status = ref None in
  let victim =
    spawn kernel "victim" (fun () ->
        ignore (Api.proc_kill (Api.self ()) Signal.Sig_kill);
        after_kill := true)
  in
  Engine.run engine;
  let inlined, _ = Engine.inline_counts engine in
  let _reaper =
    spawn kernel "reaper" (fun () ->
        match Api.reap_exit () with
        | Some (ep, _, st) when Endpoint.equal ep victim -> status := Some st
        | Some _ | None -> ())
  in
  Engine.run engine;
  Alcotest.(check bool) "the kill's return was inlined" true (inlined >= 1);
  Alcotest.(check bool) "nothing ran after the kill" false !after_kill;
  Alcotest.(check bool) "ended as Killed" true (!status = Some (Status.Killed Signal.Sig_kill))

(* A fiber that catches the kill unwinding it and keeps making syscalls
   runs inside the killer's [Proc_kill]; none of its returns may inline,
   or the killer's own return would move. *)
let test_kill_unwind_keeps_queue () =
  let outcome drive =
    let engine, kernel = make_kernel () in
    let log = ref [] in
    let note who = log := (who, Api.now ()) :: !log in
    let victim =
      spawn kernel "victim" (fun () ->
          try ignore (Api.receive Sysif.Any)
          with Sysif.Killed_exn _ ->
            for _ = 1 to 5 do
              Api.yield ();
              note "victim"
            done)
    in
    let _killer =
      spawn kernel "killer" (fun () ->
          Api.sleep 10;
          ignore (Api.proc_kill victim Signal.Sig_kill);
          note "killer";
          Api.yield ();
          note "killer")
    in
    drive engine;
    (Engine.now engine, List.rev !log)
  in
  let run = outcome (fun e -> Engine.run e) in
  let stepped = outcome (fun e -> while Engine.step e do () done) in
  Alcotest.(check (pair int (list (pair string int)))) "run = stepping" stepped run

(* Pinned from the queue-only engine, before syscall returns could
   inline: inlining a forced event records no decision and consumes the
   same sequence number, so the seeded schedule is unchanged. *)
let test_seeded_trace_pinned () =
  let ((engine, _, log) as b) = burst_kernel ~policy:(Engine.Seeded 42) () in
  Engine.run engine;
  let clock, _, _ = burst_state b in
  let decisions = Array.to_list (Engine.decisions engine) in
  Alcotest.(check int) "final clock" 3299 clock;
  Alcotest.(check (list int)) "decisions" 
    [ 2; 0; 1; 1; 1; 1; 1; 0; 1; 0; 1; 1; 1; 1; 0; 1; 0; 1; 0; 0; 0; 2; 0; 0; 1; 1; 1; 0; 0; 0; 1; 0; 0; 0; 1; 1; 1; 1; 0; 1; 1; 1 ]
    decisions;
  Alcotest.(check int) "log checksum" 51512443 (log_checksum (List.rev !log))

let tests =
  [
    Alcotest.test_case "rendezvous send/receive" `Quick test_rendezvous_send_receive;
    QCheck_alcotest.to_alcotest prop_grant_bounds;
    Alcotest.test_case "sender blocks until receive" `Quick test_sender_blocks_until_receive;
    Alcotest.test_case "sendrec round trip" `Quick test_sendrec_reply;
    Alcotest.test_case "asend completes a pending sendrec" `Quick test_asend_completes_sendrec;
    Alcotest.test_case "receive-from filter" `Quick test_receive_from_filters;
    Alcotest.test_case "notify queued and deduped" `Quick test_notify_queued_and_deduped;
    Alcotest.test_case "async send does not block" `Quick test_async_send_does_not_block;
    Alcotest.test_case "send to dead process" `Quick test_dead_destination;
    Alcotest.test_case "kill aborts rendezvous (sendrec)" `Quick test_kill_aborts_rendezvous;
    Alcotest.test_case "stale endpoint after restart" `Quick test_stale_endpoint_after_restart;
    Alcotest.test_case "grant + safecopy" `Quick test_grant_safecopy;
    Alcotest.test_case "safecopy wrong grantee rejected" `Quick test_grant_wrong_grantee_rejected;
    Alcotest.test_case "safecopy bounds checked" `Quick test_grant_bounds_checked;
    Alcotest.test_case "overflowing ranges refused" `Quick test_overflowing_ranges_refused;
    QCheck_alcotest.to_alcotest prop_memory_matches_eager_model;
    Alcotest.test_case "IPC destination privilege" `Quick test_ipc_privilege_enforced;
    Alcotest.test_case "kernel call privilege" `Quick test_kcall_privilege_enforced;
    Alcotest.test_case "I/O port privilege" `Quick test_io_port_privilege;
    Alcotest.test_case "MMU fault kills process" `Quick test_mmu_fault_kills;
    Alcotest.test_case "panic exit status" `Quick test_exit_status_panic;
    Alcotest.test_case "alarm notification" `Quick test_alarm_notification;
    Alcotest.test_case "IRQ routing" `Quick test_irq_routing;
    Alcotest.test_case "DMA through IOMMU" `Quick test_dma_through_iommu;
    Alcotest.test_case "DMA stale after driver death" `Quick test_dma_stale_after_death;
    Alcotest.test_case "DMA refusals, fill producer not run" `Quick test_dma_refusals;
    Alcotest.test_case "memory fill and view fault" `Quick test_memory_fill_view_fault;
    Alcotest.test_case "sendrec to self rejected" `Quick test_sendrec_to_self_rejected;
    Alcotest.test_case "receive from dead source" `Quick test_receive_from_dead_source_fails;
    Alcotest.test_case "receive aborted when source dies" `Quick test_receive_aborted_when_source_dies;
    Alcotest.test_case "SIGTERM as notification" `Quick test_sigterm_is_notification;
    Alcotest.test_case "exit recorded" `Quick test_exit_queue_for_pm;
    Alcotest.test_case "external kill counted once" `Quick test_external_kill_counted_once;
    Alcotest.test_case "Api.call picks the expected reply" `Quick test_api_call;
    Alcotest.test_case "Api.with_grant revokes after f" `Quick test_with_grant_revokes;
    QCheck_alcotest.to_alcotest prop_many_processes_all_messages_delivered;
    QCheck_alcotest.to_alcotest prop_kcall_mask_matches_whitelist;
    QCheck_alcotest.to_alcotest prop_privctl_updates_gate;
    Alcotest.test_case "yield with a negative cost" `Quick test_yield_negative_cost;
    Alcotest.test_case "safecopy with a negative length" `Quick test_safecopy_negative_len;
    Alcotest.test_case "inline and queued returns both taken" `Quick test_inline_path_taken;
    QCheck_alcotest.to_alcotest prop_max_events_matches_steps;
    QCheck_alcotest.to_alcotest prop_until_never_overshoots;
    Alcotest.test_case "run_until stops mid-burst as stepping does" `Quick test_run_until_mid_burst;
    Alcotest.test_case "self kill, then inline return" `Quick test_self_kill_then_inline_return;
    Alcotest.test_case "kill unwind keeps the queue" `Quick test_kill_unwind_keeps_queue;
    Alcotest.test_case "seeded trace pinned" `Quick test_seeded_trace_pinned;
  ]
