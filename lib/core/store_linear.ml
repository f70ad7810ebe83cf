let create () = Store_log.storage Storage.Linear (Store_log.create ~indexed:false)

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store
