type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a cell = {
  mutable st : 'a state;
  cell_mutex : Mutex.t;
  cell_cond : Condition.t;
}

type task = Task : (unit -> 'a) * 'a cell -> task

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* queue became non-empty, or shutdown *)
  queue : task Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

type 'a future = {
  cell : 'a cell;
  pool : t;
}

let default_jobs () =
  let from_env =
    Option.bind (Sys.getenv_opt "SONAR_JOBS") (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | _ -> None)
  in
  match from_env with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let jobs t = t.jobs

let run_task (Task (f, cell)) =
  let result =
    match f () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock cell.cell_mutex;
  cell.st <- result;
  Condition.broadcast cell.cell_cond;
  Mutex.unlock cell.cell_mutex

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec next () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stopping then None
      else begin
        Condition.wait t.cond t.mutex;
        next ()
      end
    in
    let task = next () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        run_task task;
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> default_jobs ())
  in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      jobs;
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let submit t f =
  let cell =
    { st = Pending; cell_mutex = Mutex.create (); cell_cond = Condition.create () }
  in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Domain_pool.submit: pool is shut down"
  end;
  Queue.push (Task (f, cell)) t.queue;
  Condition.signal t.cond;
  Mutex.unlock t.mutex;
  { cell; pool = t }

let try_pop t =
  Mutex.lock t.mutex;
  let task = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.mutex;
  task

let await { cell; pool } =
  let rec wait () =
    Mutex.lock cell.cell_mutex;
    let st = cell.st in
    Mutex.unlock cell.cell_mutex;
    match st with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> (
        (* Help: run someone else's queued task instead of blocking. *)
        match try_pop pool with
        | Some task ->
            run_task task;
            wait ()
        | None ->
            Mutex.lock cell.cell_mutex;
            (match cell.st with
            | Pending -> Condition.wait cell.cell_cond cell.cell_mutex
            | Done _ | Failed _ -> ());
            Mutex.unlock cell.cell_mutex;
            wait ())
  in
  wait ()

let map_list t f xs =
  let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map await futures
