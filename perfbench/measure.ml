(* Clocks, /proc readers, percentiles and span accounting shared by the
   serve and sweep workloads. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Set-ups timed per run; setup_s is their median. *)
let setups_per_run = 9

(* Seconds on the monotonic clock, to the nanosecond: set-ups of tens
   of microseconds would read alike at gettimeofday's microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* CPU seconds (user + system) of this process. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of every thread of [pid], from /proc/<pid>/stat. Linux
   reports them in USER_HZ ticks, which is 100 on every architecture. *)
let proc_cpu_s pid =
  let line = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields resume after its ')' *)
  let start = String.rindex line ')' + 2 in
  let rest = String.sub line start (String.length line - start) in
  let field = Array.of_list (String.split_on_char ' ' rest) in
  (* [field.(0)] is field 3 (state); utime and stime are fields 14 and 15 *)
  (float_of_string field.(11) +. float_of_string field.(12)) /. 100.

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let percentile p samples = Util.Stats.percentile p (Array.to_list samples)

let median samples = percentile 50. samples

(* Samples strictly above the [p]th percentile: the tail percentile is
   only meaningful with at least ten of them. *)
let beyond p samples =
  let v = percentile p samples in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 samples

(* Run [f] with a fresh trace collector installed, summing span
   durations (seconds) by name. The text profile of every retained
   event is written to [profile_out]. *)
let traced ~profile_out f =
  let sums = Hashtbl.create 32 in
  let tr = Obs.Trace.create () in
  Obs.Trace.set_observer tr (fun ~name ~dur_s ->
      Hashtbl.replace sums name (dur_s +. Option.value ~default:0. (Hashtbl.find_opt sums name)));
  Obs.Trace.install tr;
  let r = Fun.protect ~finally:Obs.Trace.uninstall f in
  let oc = open_out profile_out in
  output_string oc (Obs.Export.text_profile (Obs.Trace.events tr));
  close_out oc;
  (r, fun name -> Option.value ~default:0. (Hashtbl.find_opt sums name))

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** the untraced run's end-to-end metrics *)
  layers : metric list;  (** the traced run's per-layer metrics; empty untraced *)
}

(* A point on the timed window: wall time, CPU seconds of the program
   under test, and items finished so far. *)
type mark = { at : float; cpu : float; count : int }

(* The window is cut into slices between consecutive marks, and a rate
   is the median over slices: interference that lasts part of a run
   moves it little. [ok] tells which items (by position) were correct. *)
let slice_rates marks ~ok =
  let ok_before = Array.make (Array.length ok + 1) 0 in
  Array.iteri (fun i b -> ok_before.(i + 1) <- ok_before.(i) + if b then 1 else 0) ok;
  let rec go acc = function
    | a :: (b :: _ as rest) when b.count > a.count ->
      let items_per_s = float (ok_before.(b.count) - ok_before.(a.count)) /. (b.at -. a.at) in
      let cpu_ms = (b.cpu -. a.cpu) *. 1e3 /. float (b.count - a.count) in
      go ((items_per_s, cpu_ms) :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  let slices = Array.of_list (go [] marks) in
  (median (Array.map fst slices), median (Array.map snd slices), slices)
