module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message

(* The cache is organized as clusters of [cluster_blocks] consecutive
   blocks fetched with a single device read: sequential workloads then
   amortize per-request seek + IPC overhead exactly like a real file
   server's read-ahead, which is what lets dd approach the disk's raw
   rate (Fig. 8's 32.7 MB/s baseline). *)
let cluster_blocks = 16

type cluster = { addr : int; mutable base : int; mutable stamp : int }

type t = {
  clusters : cluster array;
  zero_addr : int;
  mutable driver : Endpoint.t;
  minor : int;
  wait_new_driver : Endpoint.t -> Endpoint.t;
  mutable device_blocks : int option;
  mutable tick : int;
  mutable reissued : int;
  mutable hits : int;
  mutable misses : int;
}

let block_size = Layout.block_size
let cluster_bytes = cluster_blocks * block_size

let create ~base_addr ~slots ~driver ~minor ~wait_new_driver =
  let n = max 2 (slots / cluster_blocks) in
  {
    clusters =
      Array.init n (fun i -> { addr = base_addr + (i * cluster_bytes); base = -1; stamp = 0 });
    zero_addr = base_addr + (n * cluster_bytes);
    driver;
    minor;
    wait_new_driver;
    device_blocks = None;
    tick = 0;
    reissued = 0;
    hits = 0;
    misses = 0;
  }

let set_driver t ep = t.driver <- ep
let driver t = t.driver
let zero_slot t = t.zero_addr
let reissued t = t.reissued
let hits t = t.hits
let misses t = t.misses
let set_device_blocks t n = t.device_blocks <- Some n

(* One device operation, reissued across driver reincarnations.  Block
   I/O is idempotent, so "redo I/O" is always safe (Sec. 6.2). *)
let rec device_io t ~write ~pos ~addr ~len =
  let access = if write then Sysif.Read_only else Sysif.Write_only in
  match Api.grant_create ~for_:t.driver ~base:addr ~len ~access with
  | Error e -> Error e
  | Ok grant -> (
      let msg =
        if write then Message.Dev_write { minor = t.minor; pos; grant; len }
        else Message.Dev_read { minor = t.minor; pos; grant; len }
      in
      let outcome = Api.sendrec t.driver msg in
      ignore (Api.grant_revoke grant);
      match outcome with
      | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
      | Ok _ -> Error Errno.E_io
      (*@recovery-begin*)
      | Error (Errno.E_dead_src_dst | Errno.E_bad_endpoint) ->
          (* The driver died with our request in flight: mark pending,
             wait for the reincarnation server to bring up a fresh
             instance, reopen, and reissue. *)
          let fresh = t.wait_new_driver t.driver in
          t.driver <- fresh;
          t.reissued <- t.reissued + 1;
          ignore (Api.sendrec t.driver (Message.Dev_open { minor = t.minor }));
          device_io t ~write ~pos ~addr ~len
      (*@recovery-end*)
      | Error e -> Error e)

let cluster_of_block t block =
  let base = block / cluster_blocks * cluster_blocks in
  let hit = ref None in
  Array.iter (fun c -> if c.base = base then hit := Some c) t.clusters;
  (base, !hit)

let lru_cluster t =
  let best = ref t.clusters.(0) in
  Array.iter (fun c -> if c.stamp < !best.stamp then best := c) t.clusters;
  !best

let touch t c =
  t.tick <- t.tick + 1;
  c.stamp <- t.tick

let read t ~block =
  let base, found = cluster_of_block t block in
  match found with
  | Some c ->
      t.hits <- t.hits + 1;
      touch t c;
      Ok (c.addr + ((block - base) * block_size))
  | None -> (
      t.misses <- t.misses + 1;
      let c = lru_cluster t in
      c.base <- -1;
      let count =
        match t.device_blocks with
        | Some limit -> min cluster_blocks (max 1 (limit - base))
        | None -> cluster_blocks
      in
      match
        device_io t ~write:false ~pos:(base * block_size) ~addr:c.addr ~len:(count * block_size)
      with
      | Ok _ ->
          c.base <- base;
          touch t c;
          Ok (c.addr + ((block - base) * block_size))
      | Error e -> Error e)

let write_through t ~block =
  let base, found = cluster_of_block t block in
  match found with
  | None -> Error Errno.E_io (* caller must have read it first *)
  | Some c -> (
      touch t c;
      let addr = c.addr + ((block - base) * block_size) in
      match device_io t ~write:true ~pos:(block * block_size) ~addr ~len:block_size with
      | Ok _ -> Ok ()
      | Error e -> Error e)
