(* An open-loop short-RPC worker. It issues exactly the calls
   [Newt_sockets.Apps.Rpc_churn] issues, in the same order and on the
   same core, so a world built with it simulates the same program as
   [Newt_core.Churn.run]; it additionally times every RPC from the
   moment it was due, which charges a late generator's wait to the
   requests it delayed, and records how late the generator ran. *)

module Exec = Newt_sim.Exec
module Time = Newt_sim.Time
module Hist = Newt_sim.Stats.Hist
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu
module Sc = Newt_stack.Syscall_srv
module Socket_api = Newt_sockets.Socket_api

type t = {
  machine : Machine.t;
  sc : Sc.t;
  app : Sc.app;
  dst : Newt_net.Addr.Ipv4.t;
  port : int;
  pace : Time.cycles;
  until : Time.cycles;
  payload : int;
  max_outstanding : int;
  connect_hist : Hist.t;  (* connect call -> established, us *)
  request_hist : Hist.t;  (* connect call -> echo received, us *)
  due_hist : Hist.t;  (* due time -> echo received, us *)
  late_hist : Hist.t;  (* due time -> start, us *)
  mutable started : int;
  mutable completed : int;
  mutable errors : int;
  mutable shed : int;
  mutable outstanding : int;
}

let now t = Exec.now (Machine.exec t.machine)
let us c = Time.to_seconds c *. 1e6

let finish t conn ok =
  t.outstanding <- t.outstanding - 1;
  if ok then t.completed <- t.completed + 1 else t.errors <- t.errors + 1;
  Socket_api.close conn (fun () -> ())

let rpc t ~due =
  t.started <- t.started + 1;
  t.outstanding <- t.outstanding + 1;
  let t0 = now t in
  Hist.record t.late_hist (us (t0 - due));
  Socket_api.tcp_socket t.sc t.app (fun conn ->
      Socket_api.connect conn ~dst:t.dst ~port:t.port (fun result ->
          match result with
          | `Error _ -> finish t conn false
          | `Ok ->
              Hist.record t.connect_hist (us (now t - t0));
              let data = Bytes.make t.payload 'r' in
              Socket_api.send conn data (fun result ->
                  match result with
                  | `Error _ -> finish t conn false
                  | `Sent _ ->
                      let rec await got =
                        Socket_api.recv conn ~max:t.payload
                          ~timeout:(Time.of_seconds 4.0) (fun result ->
                            match result with
                            | `Data d ->
                                let got = got + Bytes.length d in
                                if got >= t.payload then begin
                                  Hist.record t.request_hist (us (now t - t0));
                                  Hist.record t.due_hist (us (now t - due));
                                  finish t conn true
                                end
                                else await got
                            | `Timeout | `Eof | `Error _ -> finish t conn false)
                      in
                      await 0)))

let rec tick t ~due =
  if now t < t.until then begin
    if t.outstanding >= t.max_outstanding then t.shed <- t.shed + 1 else rpc t ~due;
    let next = now t + t.pace in
    let (_ : unit -> unit) =
      Exec.schedule (Machine.exec t.machine) ~core:(Cpu.id t.app.Sc.app_core) t.pace
        (fun () -> tick t ~due:next)
    in
    ()
  end

let start machine ~sc ~app ~dst ~port ~pace ~payload ~until =
  let t =
    {
      machine;
      sc;
      app;
      dst;
      port;
      pace;
      until;
      payload;
      max_outstanding = 256;
      connect_hist = Hist.create ();
      request_hist = Hist.create ();
      due_hist = Hist.create ();
      late_hist = Hist.create ();
      started = 0;
      completed = 0;
      errors = 0;
      shed = 0;
      outstanding = 0;
    }
  in
  tick t ~due:(now t);
  t
