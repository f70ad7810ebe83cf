let create () = Store_log.storage Storage.Hash (Store_log.create ~indexed:true)

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store
