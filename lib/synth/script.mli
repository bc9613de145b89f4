(** Synthesis script runner reproducing the paper's experimental setups.

    Section V runs each benchmark through a starting script and then
    compares resubstitution algorithms:
    {ul
    {- Script A: [eliminate; simplify] — collapse single-fanout gates into
       complex gates, then minimize each node;}
    {- Script B: Script A followed by [gcx];}
    {- Script C: Script A followed by [gkx];}
    {- script.algebraic: the SIS script with every [resub] occurrence
       replaced by the algorithm under test (Table V).}}

    The [Resub] step is parameterised so the same script can run with the
    SIS-style algebraic resubstitution or any of the paper's three
    configurations. *)

type step =
  | Sweep
  | Eliminate of int  (** threshold, as in SIS [eliminate n] *)
  | Simplify
  | Full_simplify  (** simplify with fanin satisfiability don't cares *)
  | Gcx
  | Gkx
  | Resub  (** dispatched to the [resub] callback *)

type resub_command = Logic_network.Network.t -> unit

val script_a : step list

val script_b : step list

val script_c : step list

val script_algebraic : step list
(** Our rendering of SIS's script.algebraic (chosen by the paper because
    it contains the most [resub] steps): sweep/eliminate/simplify rounds
    with two [Resub] occurrences around a [gkx]-style extraction, ending
    with a [full_simplify] as the real script does. *)

val run :
  ?resub:resub_command ->
  ?trace:Rar_util.Trace.t ->
  Logic_network.Network.t ->
  step list ->
  unit
(** Execute a script in place. [Resub] steps do nothing unless [resub] is
    provided. Each step runs inside a [step.<name>] span on [trace]
    (default {!Rar_util.Trace.disabled}). *)

type resub_method = Algebraic | Basic | Ext | Ext_gdc | Kresub

val resub_methods : (string * resub_method) list
(** Canonical spellings of the five methods ([sis], [basic], [ext],
    [ext-gdc], [resub-k]), one each. *)

(** {2 Job names}

    The one table of names every entry point ([rarsub optimize],
    [optimize-aig], [client] and the [rarsubd] wire protocol) accepts. *)

val scripts : (string * step list) list
(** [none], [a], [b], [c] and [algebraic]. *)

type job_method =
  | No_resub  (** [none]: the script alone *)
  | Method of resub_method
  | Rar  (** [rar]: redundancy addition and removal, run by the caller *)

val method_names : (string * job_method) list
(** Every method spelling: [none], the {!resub_methods}, [resub] (an
    alias of [sis]) and [rar]. The first spelling of a value is its
    canonical name. Names match exactly, never by prefix. *)

(** {2 Settings} *)

type settings = {
  use_filter : bool;
      (** the signature divisor filter ([Kresub] has none to turn off) *)
  sim_seed : int;  (** seed of the signature engines *)
  sim_words : int;  (** signature vector size in 64-bit words *)
  fault_fuel : int option;
      (** implication steps per work unit ({!Booldiv.Substitute.run}) *)
  deadline_at : float option;  (** absolute {!Unix.gettimeofday} instant *)
}
(** What a resubstitution run may do: filled once per job and handed to
    {!resub_command} and {!Aig_opt.config}. *)

val default_settings : settings
(** Filter on, {!Logic_sim.Signature.default_seed}
    and {!Logic_sim.Signature.default_words}, no fuel cap, no
    deadline. *)

val resub_command :
  ?settings:settings ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  resub_method ->
  resub_command
(** Build a resubstitution command under [settings] (default
    {!default_settings}). [counters] accumulates pair/division tallies
    across the run for reporting; [trace] receives the structured event
    stream; [dc] threads an external don't-care view into the method
    (forbidden assignments for the Boolean methods, care-set masking
    for the signature filter — see {!Booldiv.Substitute.config} and
    {!Resub.run}). [Algebraic] is SIS [resub -d], the baseline; [Basic],
    [Ext] and [Ext_gdc] are the paper's basic-division,
    extended-division and extended-with-global-don't-cares
    configurations; [Kresub] is constructive k-resubstitution. *)
