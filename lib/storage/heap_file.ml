module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

let page_size = 4096
let magic = "TPHF"
let version = 1

(* Data-page layout: u16 record count, then that many self-delimiting
   tuple records. A record larger than one page's capacity is stored as an
   oversize chain: count = 0xFFFF, u64 byte length, then the bytes,
   continuing on as many raw pages as needed. *)
let oversize_sentinel = 0xFFFF

let payload_capacity = page_size - 2

let pad_to_page buf =
  let remainder = Buffer.length buf mod page_size in
  if remainder > 0 then Buffer.add_string buf (String.make (page_size - remainder) '\000')

let header_bytes ~schema ~tuple_count ~data_pages =
  let buf = Buffer.create page_size in
  Buffer.add_string buf magic;
  Codec.write_uint16 buf version;
  Codec.write_string buf (Schema.name schema);
  let columns = Schema.columns schema in
  Codec.write_uint16 buf (List.length columns);
  List.iter (Codec.write_string buf) columns;
  Codec.write_int64 buf tuple_count;
  Codec.write_int64 buf data_pages;
  if Buffer.length buf > page_size then corrupt "schema too large for header page";
  pad_to_page buf;
  Buffer.contents buf

let encode_data_pages relation =
  let pages = Buffer.create (16 * page_size) in
  (* Records of the page being assembled. *)
  let pending = Buffer.create page_size in
  let pending_count = ref 0 in
  let flush_pending () =
    if !pending_count > 0 then begin
      let page = Buffer.create page_size in
      Codec.write_uint16 page !pending_count;
      Buffer.add_buffer page pending;
      pad_to_page page;
      Buffer.add_buffer pages page;
      Buffer.clear pending;
      pending_count := 0
    end
  in
  let add_oversize record =
    flush_pending ();
    let chain = Buffer.create (String.length record + 16) in
    Codec.write_uint16 chain oversize_sentinel;
    Codec.write_int64 chain (String.length record);
    Buffer.add_string chain record;
    pad_to_page chain;
    Buffer.add_buffer pages chain
  in
  List.iter
    (fun tp ->
      let buf = Buffer.create 128 in
      Codec.write_tuple buf tp;
      let record = Buffer.contents buf in
      if String.length record > payload_capacity then add_oversize record
      else begin
        if Buffer.length pending + String.length record > payload_capacity then
          flush_pending ();
        Buffer.add_string pending record;
        incr pending_count
      end)
    (Relation.tuples relation);
  flush_pending ();
  let bytes = Buffer.contents pages in
  (bytes, String.length bytes / page_size)

let write path relation =
  let data, data_pages = encode_data_pages relation in
  let header =
    header_bytes ~schema:(Relation.schema relation)
      ~tuple_count:(Relation.cardinality relation) ~data_pages
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc header;
     output_string oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* Through a pool, a read holds one descriptor on [path] for its whole
   length ({!with_descriptor}), from which the pool loads every page
   that misses; a page that starts past the end of the file is
   corruption, as on the unpooled path. *)
let get_page ?pool ~path index =
  match pool with
  | Some pool -> (
      try Buffer_pool.read_page pool ~path ~index ~size:page_size
      with End_of_file -> corrupt "page %d beyond end of %s" index path)
  | None ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let file_len = in_channel_length ic in
          let offset = index * page_size in
          if offset >= file_len then corrupt "page %d beyond end of %s" index path;
          seek_in ic offset;
          let available = min page_size (file_len - offset) in
          let bytes = Bytes.make page_size '\000' in
          really_input ic bytes 0 available;
          bytes)

(* Runs [f] with [path] attached to [pool] on a descriptor opened for
   the purpose, detached and closed when [f] returns or raises. *)
let with_descriptor ?pool path f =
  match pool with
  | None -> f ()
  | Some pool ->
      let fd =
        try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
        with Unix.Unix_error (e, _, _) ->
          raise (Sys_error (path ^ ": " ^ Unix.error_message e))
      in
      Buffer_pool.attach pool ~path fd;
      Fun.protect
        ~finally:(fun () ->
          Buffer_pool.detach pool ~path;
          Unix.close fd)
        f

let read_header ?pool path =
  let bytes = get_page ?pool ~path 0 in
  let r = Codec.reader bytes in
  let m = Bytes.sub_string bytes 0 4 in
  if not (String.equal m magic) then corrupt "%s: bad magic %S" path m;
  r.Codec.pos <- 4;
  let v = Codec.read_uint16 r in
  if v <> version then corrupt "%s: unsupported format version %d" path v;
  let name = Codec.read_string r in
  let n_columns = Codec.read_uint16 r in
  let columns = List.init n_columns (fun _ -> Codec.read_string r) in
  let tuple_count = Codec.read_int64 r in
  let data_pages = Codec.read_int64 r in
  (v, Schema.make ~name columns, tuple_count, data_pages)

let schema_of ?pool path =
  with_descriptor ?pool path @@ fun () ->
  let _, schema, _, _ = read_header ?pool path in
  schema

let page_count ?pool path =
  with_descriptor ?pool path @@ fun () ->
  let _, _, _, data_pages = read_header ?pool path in
  data_pages

let read_rows ?pool path schema tuple_count data_pages =
  let tuples = ref [] in
  let decoded = ref 0 in
  let page_index = ref 1 in
  (try
     while !page_index <= data_pages do
       let bytes = get_page ?pool ~path !page_index in
       let r = Codec.reader bytes in
       let count = Codec.read_uint16 r in
       if count = oversize_sentinel then begin
         let length = Codec.read_int64 r in
         let record = Buffer.create length in
         let first_chunk = min length (page_size - r.Codec.pos) in
         Buffer.add_subbytes record bytes r.Codec.pos first_chunk;
         let remaining = ref (length - first_chunk) in
         while !remaining > 0 do
           incr page_index;
           if !page_index > data_pages then corrupt "%s: truncated oversize chain" path;
           let continuation = get_page ?pool ~path !page_index in
           let chunk = min !remaining page_size in
           Buffer.add_subbytes record continuation 0 chunk;
           remaining := !remaining - chunk
         done;
         let tuple =
           Codec.read_tuple (Codec.reader (Buffer.to_bytes record))
         in
         tuples := tuple :: !tuples;
         incr decoded
       end
       else
         for _ = 1 to count do
           tuples := Codec.read_tuple r :: !tuples;
           incr decoded
         done;
       incr page_index
     done
   with Codec.Corrupt msg -> corrupt "%s: %s" path msg);
  if !decoded <> tuple_count then
    corrupt "%s: header claims %d tuples, found %d" path tuple_count !decoded;
  Relation.of_tuples schema (List.rev !tuples)

let read ?pool path =
  with_descriptor ?pool path @@ fun () ->
  let _, schema, tuple_count, data_pages = read_header ?pool path in
  read_rows ?pool path schema tuple_count data_pages
