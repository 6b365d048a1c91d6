type t = {
  mutex : Mutex.t;
  has_work : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

let num_domains t = List.length t.workers

let pending t =
  Mutex.lock t.mutex;
  let n = Queue.length t.jobs in
  Mutex.unlock t.mutex;
  n

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if t.stopped then begin
      Mutex.unlock t.mutex;
      None
    end
    else
      match Queue.take_opt t.jobs with
      | Some job ->
          Mutex.unlock t.mutex;
          Some job
      | None ->
          Condition.wait t.has_work t.mutex;
          next ()
  in
  match next () with
  | None -> ()
  | Some job ->
      job ();
      worker_loop t

let create ?num_domains () =
  let cap = Domain.recommended_domain_count () in
  let n =
    match num_domains with
    | Some n -> min (max n 0) cap
    | None -> max 0 (cap - 1)
  in
  let t =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      jobs = Queue.create ();
      stopped = false;
      workers = [];
    }
  in
  t.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* The global pool: one worker per remaining recommended domain, but at
   least one so that the cross-domain machinery is exercised even on a
   single-core host. Joined at exit — the runtime requires all domains
   to have terminated when the main domain returns. *)
let global = ref None
let global_mutex = Mutex.create ()

let default () =
  Mutex.lock global_mutex;
  let t =
    match !global with
    | Some t -> t
    | None ->
        let n = max 1 (Domain.recommended_domain_count () - 1) in
        let t = create ~num_domains:n () in
        global := Some t;
        at_exit (fun () -> shutdown t);
        t
  in
  Mutex.unlock global_mutex;
  t

type 'b slot = Empty | Value of 'b | Raised of exn * Printexc.raw_backtrace

let map t f items =
  match items with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let inputs = Flat.Vec.of_list items in
      let n = Array.length inputs in
      let results = Array.make n Empty in
      let remaining = Atomic.make n in
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let run i =
        let outcome =
          match f inputs.(i) with
          | v -> Value v
          | exception e -> Raised (e, Printexc.get_raw_backtrace ())
        in
        results.(i) <- outcome;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          (* Last item: wake the caller if it is already waiting. Taking
             the mutex orders this broadcast after the caller's check of
             [remaining], so the wakeup cannot be lost. *)
          Mutex.lock batch_mutex;
          Condition.broadcast batch_done;
          Mutex.unlock batch_mutex
        end
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.add (fun () -> run i) t.jobs
      done;
      Condition.broadcast t.has_work;
      Mutex.unlock t.mutex;
      (* The caller participates: drain the queue (possibly including
         jobs of concurrently running batches), then wait for the last
         straggler running on a worker. *)
      let rec drain () =
        Mutex.lock t.mutex;
        let job = Queue.take_opt t.jobs in
        Mutex.unlock t.mutex;
        match job with
        | Some job ->
            job ();
            drain ()
        | None -> ()
      in
      drain ();
      Mutex.lock batch_mutex;
      while Atomic.get remaining > 0 do
        Condition.wait batch_done batch_mutex
      done;
      Mutex.unlock batch_mutex;
      List.init n (fun i ->
          match results.(i) with
          | Value v -> v
          | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
          | Empty -> assert false)
