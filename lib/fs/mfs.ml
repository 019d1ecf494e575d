module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Metrics = Resilix_obs.Metrics

let cache_base = 0x40000
let cache_slots = 192
let memory_kb = 2048

(* The file system lives on the driver's minor device 0. *)
let minor = 0

type t = {
  driver_key : string;
  mutable cache : Cache.t option; (* set once the body is running *)
  parked : (Endpoint.t * Message.t) Queue.t;
      (* requests that arrived while we were stalled on a dead driver *)
  spans : Resilix_obs.Span.t;
  c_outages : Metrics.counter;
}

let create ~driver_key ~spans ~metrics () =
  {
    driver_key;
    cache = None;
    parked = Queue.create ();
    spans;
    c_outages = Metrics.counter metrics "mfs.driver.outages";
  }

let reissued_ios t = match t.cache with Some c -> Cache.reissued c | None -> 0

let bs = Layout.block_size

(* ------------------------------------------------------------------ *)
(* Data-store interaction                                              *)
(* ------------------------------------------------------------------ *)

(*@recovery-begin*)
(* Drain pending data-store updates; remember the latest endpoint
   published for our driver. *)
let ds_drain_updates t =
  let latest = ref None in
  Api.ds_check (fun key value ->
      match value with
      | Message.V_endpoint ep when String.equal key t.driver_key -> latest := Some ep
      | _ -> ());
  !latest

(* Block until the reincarnation server publishes a fresh endpoint for
   our driver (Sec. 6.2: "the file server blocks and waits until the
   disk driver has been restarted"). *)
let wait_new_driver t dead_ep =
  let rec wait () =
    match ds_drain_updates t with
    | Some ep when not (Endpoint.equal ep dead_ep) -> ep
    | Some _ | None -> (
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> wait ()
        | Ok (Sysif.Rx_msg { src; body = Message.Fs_new_driver { endpoint; _ } }) ->
            ignore (Api.send src (Message.Fs_reply { result = Ok () }));
            if Endpoint.equal endpoint dead_ep then wait () else endpoint
        | Ok (Sysif.Rx_msg { src; body }) ->
            (* The file server "blocks and waits" (Sec. 6.2): park the
               request and serve it once the driver is back. *)
            Queue.push (src, body) t.parked;
            wait ()
        | Ok (Sysif.Rx_notify _) | Error _ -> wait ())
  in
  Api.trace "mfs" "disk driver %s died; waiting for reincarnation" t.driver_key;
  Metrics.incr t.c_outages;
  let ep = wait () in
  Api.trace "mfs" "disk driver %s is back as %s; redoing pending I/O" t.driver_key
    (Endpoint.to_string ep);
  Resilix_obs.Span.mark_component t.spans t.driver_key Resilix_obs.Span.Reopen ~now:(Api.now ());
  Api.emit "mfs"
    (Resilix_obs.Event.Retry
       { component = t.driver_key; operation = "redo-io"; count = Queue.length t.parked });
  ep

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* Low-level helpers over the cache                                    *)
(* ------------------------------------------------------------------ *)

exception Io_error of Errno.t

let cache_read cache ~block =
  match Cache.read cache ~block with Ok addr -> addr | Error e -> raise (Io_error e)

let cache_flush cache ~block =
  match Cache.write_through cache ~block with Ok () -> () | Error e -> raise (Io_error e)

let get_u32 mem addr = Memory.get_u32 mem addr
let set_u32 mem addr v = Memory.set_u32 mem addr v

(* Zero a freshly allocated block (the store generates random content
   for never-written blocks, so explicit zeroing is essential). *)
let zero_block cache mem ~block =
  let addr = cache_read cache ~block in
  Memory.write mem ~addr (Bytes.make bs '\000');
  cache_flush cache ~block

(* Find, set and persist a clear bit in a bitmap spanning
   [map_start .. map_start+map_blocks).  Returns the bit index. *)
let alloc_bit cache mem ~map_start ~map_blocks ~limit =
  let rec scan_block b =
    if b >= map_blocks then None
    else begin
      let addr = cache_read cache ~block:(map_start + b) in
      let rec scan_byte i =
        if i >= bs then None
        else
          let v = Memory.get_u8 mem (addr + i) in
          if v = 0xFF then scan_byte (i + 1)
          else begin
            let rec scan_bit j =
              if j >= 8 then None
              else if v land (1 lsl j) = 0 then Some j
              else scan_bit (j + 1)
            in
            match scan_bit 0 with
            | Some j ->
                let index = (b * bs * 8) + (i * 8) + j in
                if index >= limit then None
                else begin
                  Memory.set_u8 mem (addr + i) (v lor (1 lsl j));
                  cache_flush cache ~block:(map_start + b);
                  Some index
                end
            | None -> scan_byte (i + 1)
          end
      in
      match scan_byte 0 with Some _ as r -> r | None -> scan_block (b + 1)
    end
  in
  scan_block 0

let clear_bit cache mem ~map_start ~index =
  let block = map_start + (index / (bs * 8)) in
  let byte = index / 8 mod bs in
  let bit = index mod 8 in
  let addr = cache_read cache ~block in
  Memory.set_u8 mem (addr + byte) (Memory.get_u8 mem (addr + byte) land lnot (1 lsl bit));
  cache_flush cache ~block

(* ------------------------------------------------------------------ *)
(* Inodes                                                              *)
(* ------------------------------------------------------------------ *)

type fs = { cache : Cache.t; mem : Memory.t; sb : Layout.superblock }

let inode_location fs ino =
  let block = Layout.inode_start fs.sb + (ino / Layout.inodes_per_block) in
  let off = ino mod Layout.inodes_per_block * Layout.inode_size in
  (block, off)

let read_inode fs ino =
  let block, off = inode_location fs ino in
  let addr = cache_read fs.cache ~block in
  Layout.decode_inode (Memory.read fs.mem ~addr:(addr + off) ~len:Layout.inode_size) ~off:0

let write_inode fs ino inode =
  let block, off = inode_location fs ino in
  let addr = cache_read fs.cache ~block in
  Memory.write fs.mem ~addr:(addr + off) (Layout.encode_inode inode);
  cache_flush fs.cache ~block

let alloc_zone fs =
  match
    alloc_bit fs.cache fs.mem ~map_start:Layout.zmap_start ~map_blocks:fs.sb.Layout.zmap_blocks
      ~limit:fs.sb.Layout.total_blocks
  with
  | Some z ->
      zero_block fs.cache fs.mem ~block:z;
      z
  | None -> raise (Io_error Errno.E_nospace)

let free_zone fs z = if z > 0 then clear_bit fs.cache fs.mem ~map_start:Layout.zmap_start ~index:z

let alloc_inode fs =
  match
    alloc_bit fs.cache fs.mem ~map_start:Layout.imap_block ~map_blocks:1
      ~limit:fs.sb.Layout.inode_count
  with
  | Some ino -> ino
  | None -> raise (Io_error Errno.E_nospace)

(* Map a file block index to a zone number; 0 means a hole.  With
   [alloc] the path (indirect blocks included) is materialized. *)
let bmap fs inode ~index ~alloc =
  let zpi = Layout.zones_per_indirect in
  let read_entry block i = get_u32 fs.mem (cache_read fs.cache ~block + (4 * i)) in
  let write_entry block i v =
    set_u32 fs.mem (cache_read fs.cache ~block + (4 * i)) v;
    cache_flush fs.cache ~block
  in
  let ensure_indirect slot =
    if inode.Layout.zones.(slot) = 0 then begin
      if not alloc then 0
      else begin
        let z = alloc_zone fs in
        inode.Layout.zones.(slot) <- z;
        z
      end
    end
    else inode.Layout.zones.(slot)
  in
  if index < Layout.direct_zones then begin
    if inode.Layout.zones.(index) = 0 && alloc then inode.Layout.zones.(index) <- alloc_zone fs;
    inode.Layout.zones.(index)
  end
  else if index < Layout.direct_zones + zpi then begin
    let ind = ensure_indirect Layout.direct_zones in
    if ind = 0 then 0
    else begin
      let i = index - Layout.direct_zones in
      let z = read_entry ind i in
      if z = 0 && alloc then begin
        let fresh = alloc_zone fs in
        write_entry ind i fresh;
        fresh
      end
      else z
    end
  end
  else begin
    let rest = index - Layout.direct_zones - zpi in
    let d = rest / zpi and r = rest mod zpi in
    if d >= zpi then raise (Io_error Errno.E_range);
    let dind = ensure_indirect (Layout.direct_zones + 1) in
    if dind = 0 then 0
    else begin
      let ind =
        let z = read_entry dind d in
        if z = 0 && alloc then begin
          let fresh = alloc_zone fs in
          write_entry dind d fresh;
          fresh
        end
        else z
      in
      if ind = 0 then 0
      else begin
        let z = read_entry ind r in
        if z = 0 && alloc then begin
          let fresh = alloc_zone fs in
          write_entry ind r fresh;
          fresh
        end
        else z
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Directories and path resolution                                     *)
(* ------------------------------------------------------------------ *)

let dir_find fs dir_inode name =
  let nblocks = (dir_inode.Layout.size + bs - 1) / bs in
  let per_block = bs / Layout.dirent_size in
  let rec scan_block bi =
    if bi >= max nblocks 1 then None
    else begin
      let zone = bmap fs dir_inode ~index:bi ~alloc:false in
      if zone = 0 then scan_block (bi + 1)
      else begin
        let addr = cache_read fs.cache ~block:zone in
        let raw = Memory.read fs.mem ~addr ~len:bs in
        let rec scan_entry i =
          if i >= per_block then None
          else
            let ino, entry_name = Layout.decode_dirent raw ~off:(i * Layout.dirent_size) in
            if ino <> 0 && String.equal entry_name name then Some ino else scan_entry (i + 1)
        in
        match scan_entry 0 with Some _ as r -> r | None -> scan_block (bi + 1)
      end
    end
  in
  scan_block 0

let dir_add fs ~dir_ino name ~ino =
  let dir_inode = read_inode fs dir_ino in
  let per_block = bs / Layout.dirent_size in
  (* Find a free slot in existing blocks, else extend. *)
  let rec try_block bi =
    let zone = bmap fs dir_inode ~index:bi ~alloc:true in
    let addr = cache_read fs.cache ~block:zone in
    let raw = Memory.read fs.mem ~addr ~len:bs in
    let rec find_free i =
      if i >= per_block then None
      else
        let e_ino, _ = Layout.decode_dirent raw ~off:(i * Layout.dirent_size) in
        if e_ino = 0 then Some i else find_free (i + 1)
    in
    match find_free 0 with
    | Some slot ->
        Memory.write fs.mem
          ~addr:(addr + (slot * Layout.dirent_size))
          (Layout.encode_dirent ~ino ~name);
        cache_flush fs.cache ~block:zone;
        let used_end = (bi * bs) + ((slot + 1) * Layout.dirent_size) in
        if used_end > dir_inode.Layout.size then begin
          let updated = { dir_inode with Layout.size = used_end } in
          write_inode fs dir_ino updated
        end
        else
          (* zones array may have been mutated by bmap ~alloc *)
          write_inode fs dir_ino dir_inode
    | None -> try_block (bi + 1)
  in
  try_block 0

let split_path path =
  List.filter (fun c -> String.length c > 0) (String.split_on_char '/' path)

let resolve fs path ~create =
  let components = split_path path in
  let rec walk dir_ino = function
    | [] -> Ok (dir_ino, read_inode fs dir_ino)
    | [ last ] -> begin
        let dir_inode = read_inode fs dir_ino in
        if dir_inode.Layout.mode <> 2 then Error Errno.E_not_dir
        else
          match dir_find fs dir_inode last with
          | Some ino -> Ok (ino, read_inode fs ino)
          | None ->
              if not create then Error Errno.E_noent
              else if String.length last > Layout.max_name then Error Errno.E_inval
              else begin
                let ino = alloc_inode fs in
                let inode =
                  {
                    Layout.mode = 1;
                    size = 0;
                    nlinks = 1;
                    zones = Array.make (Layout.direct_zones + 2) 0;
                  }
                in
                write_inode fs ino inode;
                dir_add fs ~dir_ino last ~ino;
                Ok (ino, inode)
              end
      end
    | comp :: rest -> begin
        let dir_inode = read_inode fs dir_ino in
        if dir_inode.Layout.mode <> 2 then Error Errno.E_not_dir
        else
          match dir_find fs dir_inode comp with
          | Some ino -> walk ino rest
          | None -> Error Errno.E_noent
      end
  in
  match components with [] -> Ok (1, read_inode fs 1) | _ -> walk 1 components

(* ------------------------------------------------------------------ *)
(* Read/write                                                          *)
(* ------------------------------------------------------------------ *)

(* Move [len] bytes between the VFS grant and the file, block by
   block.  The VFS (and behind it, the application) stays blocked in
   sendrec for the duration — including across any disk-driver
   reincarnations the cache masks. *)
let handle_readwrite fs ~src ~ino ~write ~pos ~grant ~len =
  let inode = read_inode fs ino in
  if pos < 0 || len < 0 then Error Errno.E_inval
  else begin
    let len_eff = if write then len else max 0 (min len (inode.Layout.size - pos)) in
    let progress = ref 0 in
    let zones_dirty = ref false in
    (try
       while !progress < len_eff do
         let abs = pos + !progress in
         let index = abs / bs and boff = abs mod bs in
         let chunk = min (bs - boff) (len_eff - !progress) in
         if write then begin
           let zone = bmap fs inode ~index ~alloc:true in
           zones_dirty := true;
           let addr = cache_read fs.cache ~block:zone in
           (match
              Api.safecopy_from ~owner:src ~grant ~grant_off:!progress ~local_addr:(addr + boff)
                ~len:chunk
            with
           | Ok () -> ()
           | Error e -> raise (Io_error e));
           cache_flush fs.cache ~block:zone
         end
         else begin
           let zone = bmap fs inode ~index ~alloc:false in
           let addr =
             if zone = 0 then Cache.zero_slot fs.cache else cache_read fs.cache ~block:zone
           in
           let addr = if zone = 0 then addr else addr + boff in
           match
             Api.safecopy_to ~owner:src ~grant ~grant_off:!progress ~local_addr:addr ~len:chunk
           with
           | Ok () -> ()
           | Error e -> raise (Io_error e)
         end;
         progress := !progress + chunk
       done;
       if write && (pos + !progress > inode.Layout.size || !zones_dirty) then begin
         let size = max inode.Layout.size (pos + !progress) in
         write_inode fs ino { inode with Layout.size }
       end;
       Ok !progress
     with Io_error e -> Error e)
  end

let handle_truncate fs ~ino =
  let inode = read_inode fs ino in
  (try
     (* Free direct zones. *)
     for i = 0 to Layout.direct_zones - 1 do
       free_zone fs inode.Layout.zones.(i)
     done;
     (* Free single-indirect tree. *)
     let free_indirect ind =
       if ind > 0 then begin
         let addr = cache_read fs.cache ~block:ind in
         for i = 0 to Layout.zones_per_indirect - 1 do
           free_zone fs (get_u32 fs.mem (addr + (4 * i)))
         done;
         free_zone fs ind
       end
     in
     free_indirect inode.Layout.zones.(Layout.direct_zones);
     let dind = inode.Layout.zones.(Layout.direct_zones + 1) in
     if dind > 0 then begin
       let addr = cache_read fs.cache ~block:dind in
       let entries = Array.init Layout.zones_per_indirect (fun i -> get_u32 fs.mem (addr + (4 * i))) in
       Array.iter free_indirect entries;
       free_zone fs dind
     end;
     write_inode fs ino
       { inode with Layout.size = 0; zones = Array.make (Layout.direct_zones + 2) 0 };
     Ok ()
   with Io_error e -> Error e)

(* ------------------------------------------------------------------ *)
(* Server body                                                         *)
(* ------------------------------------------------------------------ *)

let body t () =
  (* Subscribe to block-driver updates before anything can fail. *)
  ignore (Api.ds_subscribe "blk.*");
  (* Wait for the driver to appear. *)
  let rec find_driver () =
    match Api.ds_retrieve_endpoint t.driver_key with
    | Some ep -> ep
    | None ->
        Api.sleep 10_000;
        find_driver ()
  in
  let driver = find_driver () in
  let cache =
    Cache.create ~base_addr:cache_base ~slots:cache_slots ~driver ~minor
      ~wait_new_driver:(wait_new_driver t)
  in
  t.cache <- Some cache;
  ignore (Api.sendrec driver (Message.Dev_open { minor }));
  let mem = Api.memory () in
  (* Mount: read the superblock. *)
  let sb =
    match Cache.read cache ~block:0 with
    | Error _ -> Api.panic "mfs: cannot read superblock"
    | Ok addr -> (
        match Layout.decode_superblock (Memory.read mem ~addr ~len:bs) with
        | Ok sb -> sb
        | Error msg -> Api.panic ("mfs: bad superblock: " ^ msg))
  in
  Cache.set_device_blocks cache sb.Layout.total_blocks;
  Memory.write mem ~addr:(Cache.zero_slot cache) (Bytes.make bs '\000');
  let fs = { cache; mem; sb } in
  Api.trace "mfs" "mounted RXFS: %d blocks, %d inodes" sb.Layout.total_blocks sb.Layout.inode_count;
  let next_request () =
    match Queue.take_opt t.parked with
    | Some (src, body) -> Ok (Sysif.Rx_msg { src; body })
    | None -> Api.receive Sysif.Any
  in
  let rec loop () =
    (match next_request () with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> begin
        match ds_drain_updates t with
        | Some ep ->
            Cache.set_driver cache ep;
            ignore (Api.sendrec ep (Message.Dev_open { minor }))
        | None -> ()
      end
    | Ok (Sysif.Rx_notify _) -> ()
    | Ok (Sysif.Rx_msg { src; body }) -> begin
        match body with
        | Message.Fs_lookup { path; create } -> begin
            match resolve fs path ~create with
            | Ok (ino, inode) ->
                ignore
                  (Api.send src
                     (Message.Fs_lookup_reply { result = Ok (ino, inode.Layout.size) }))
            | Error e -> ignore (Api.send src (Message.Fs_lookup_reply { result = Error e }))
            | exception Io_error e ->
                ignore (Api.send src (Message.Fs_lookup_reply { result = Error e }))
          end
        | Message.Fs_readwrite { ino; write; pos; grant; len } ->
            let result = handle_readwrite fs ~src ~ino ~write ~pos ~grant ~len in
            ignore (Api.send src (Message.Fs_io_reply { result }))
        | Message.Fs_truncate { ino } ->
            let result = handle_truncate fs ~ino in
            ignore (Api.send src (Message.Fs_reply { result }))
        | Message.Fs_sync ->
            (* Write-through cache: nothing buffered. *)
            ignore (Api.send src (Message.Fs_reply { result = Ok () }))
        | Message.Fs_new_driver { endpoint; _ } ->
            Cache.set_driver cache endpoint;
            ignore (Api.sendrec endpoint (Message.Dev_open { minor }));
            ignore (Api.send src (Message.Fs_reply { result = Ok () }))
        | _ -> ignore (Api.send src (Message.Fs_reply { result = Error Errno.E_inval }))
      end);
    loop ()
  in
  loop ()
